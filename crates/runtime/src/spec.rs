//! Fleet descriptions: the `--devices N[,spec]` grammar.
//!
//! Two forms, matching how operators describe a box:
//!
//! * a count with an optional model — `"2"` (two V100s), `"3,1080ti"`;
//! * an explicit heterogeneous list — `"v100,1080ti"`.

use gzkp_gpu_sim::device::{cpu_xeon, gtx1080ti, v100, DeviceConfig};

/// Upper bound on fleet size; a typo like `--devices 21080ti` should fail,
/// not allocate two thousand timelines.
pub(crate) const MAX_DEVICES: usize = 64;

/// Looks up a device preset by its spec name (case-insensitive).
/// Accepted: `v100`, `1080ti`/`gtx1080ti`, `cpu`/`xeon`.
pub(crate) fn device_by_name(name: &str) -> Option<DeviceConfig> {
    match name.trim().to_ascii_lowercase().as_str() {
        "v100" => Some(v100()),
        "1080ti" | "gtx1080ti" => Some(gtx1080ti()),
        "cpu" | "xeon" => Some(cpu_xeon()),
        _ => None,
    }
}

/// Parses a `--devices` fleet description into device configs.
///
/// * `"N"` — `N` V100s;
/// * `"N,<model>"` — `N` copies of the named preset;
/// * `"<model>,<model>,…"` — exactly those devices, in order.
///
/// # Errors
///
/// A human-readable message naming the offending token: unknown model
/// names, a zero or over-`MAX_DEVICES` count, or an empty spec.
pub fn parse_devices(spec: &str) -> Result<Vec<DeviceConfig>, String> {
    let tokens: Vec<&str> = spec.split(',').map(str::trim).collect();
    if tokens.iter().any(|t| t.is_empty()) {
        return Err(format!("empty device entry in spec {spec:?}"));
    }
    if let Ok(count) = tokens[0].parse::<usize>() {
        if count == 0 || count > MAX_DEVICES {
            return Err(format!(
                "device count must be 1..={MAX_DEVICES}, got {count}"
            ));
        }
        let template = match tokens.len() {
            1 => v100(),
            2 => device_by_name(tokens[1]).ok_or_else(|| {
                format!(
                    "unknown device model {:?} (try v100, 1080ti, cpu)",
                    tokens[1]
                )
            })?,
            _ => {
                return Err(format!(
                    "count form takes at most one model: {spec:?} (use e.g. \"2,v100\")"
                ))
            }
        };
        return Ok(vec![template; count]);
    }
    let devices = tokens
        .iter()
        .map(|t| {
            device_by_name(t)
                .ok_or_else(|| format!("unknown device model {t:?} (try v100, 1080ti, cpu)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if devices.len() > MAX_DEVICES {
        return Err(format!(
            "device list has {} entries, max is {MAX_DEVICES}",
            devices.len()
        ));
    }
    Ok(devices)
}

/// Short human label for a fleet, e.g. `"2xV100"` or `"V100+GTX1080Ti"`.
pub(crate) fn fleet_label(devices: &[DeviceConfig]) -> String {
    if devices.is_empty() {
        return "empty".to_string();
    }
    if devices.iter().all(|d| d.name == devices[0].name) {
        return format!("{}x{}", devices.len(), devices[0].name);
    }
    devices.iter().map(|d| d.name).collect::<Vec<_>>().join("+")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_defaults_to_v100() {
        let fleet = parse_devices("3").unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(fleet.iter().all(|d| d.name == "V100"));
    }

    #[test]
    fn count_with_model() {
        let fleet = parse_devices("2,1080ti").unwrap();
        assert_eq!(fleet.len(), 2);
        assert!(fleet.iter().all(|d| d.name == "GTX1080Ti"));
    }

    #[test]
    fn heterogeneous_list_preserves_order() {
        let fleet = parse_devices("v100, 1080ti ,cpu").unwrap();
        let names: Vec<&str> = fleet.iter().map(|d| d.name).collect();
        assert_eq!(names, ["V100", "GTX1080Ti", "2xXeon5117"]);
    }

    #[test]
    fn bad_specs_name_the_problem() {
        assert!(parse_devices("").unwrap_err().contains("empty"));
        assert!(parse_devices("0").unwrap_err().contains("count"));
        assert!(parse_devices("9999").unwrap_err().contains("count"));
        assert!(parse_devices("2,a100").unwrap_err().contains("a100"));
        assert!(parse_devices("v100,,cpu").unwrap_err().contains("empty"));
        assert!(parse_devices("2,v100,cpu")
            .unwrap_err()
            .contains("count form"));
        assert!(parse_devices("titan").unwrap_err().contains("titan"));
    }

    #[test]
    fn labels() {
        assert_eq!(fleet_label(&parse_devices("2").unwrap()), "2xV100");
        assert_eq!(
            fleet_label(&parse_devices("v100,1080ti").unwrap()),
            "V100+GTX1080Ti"
        );
    }
}
