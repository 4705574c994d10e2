//! Checkpoint wire format, both proof systems through the
//! [`ProofSystem`] surface: the bytes are pinned by golden digests (so
//! "format unchanged" is tested, not asserted), and no mutation of a
//! valid checkpoint — truncated, flipped, or extended — may panic a
//! decoder or decode to something that does not re-encode to the input.

use gzkp_curves::bn254::{Bn254, Fr};
use gzkp_ff::Field;
use gzkp_gpu_sim::v100;
use gzkp_groth16::{ConstraintSystem, Groth16System, LinearCombination};
use gzkp_msm::GzkpMsm;
use gzkp_ntt::GzkpNtt;
use gzkp_plonk::{PlonkCircuit, PlonkSystem};
use gzkp_proof_system::{Engines, ProofSystem};
use gzkp_telemetry::NoopSink;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const SETUP_SEED: u64 = 11;
const BLIND_SEED: u64 = 5;

/// Bytes before the first report section: magic, version, curve shape,
/// seed, done mask.
const FIXED_HEADER: usize = 7 + 1 + 16 + 8 + 1;

/// Offset of the backend body: past the header's two length-prefixed
/// report sections.
fn body_offset(bytes: &[u8]) -> usize {
    let section_end =
        |at: usize| at + 8 + u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    section_end(section_end(FIXED_HEADER))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Three constraints `x_{i+1} = x_i · x_i` from a public `x_0 = 3`: small
/// enough that every truncation offset of every snapshot is affordable.
fn squaring_chain() -> ConstraintSystem<Fr> {
    let mut cs = ConstraintSystem::<Fr>::new();
    let mut cur = Fr::from_u64(3);
    let mut var = cs.alloc_input(cur);
    for _ in 0..3 {
        let next = cur * cur;
        let next_var = cs.alloc(next);
        cs.enforce(
            LinearCombination::from_var(var),
            LinearCombination::from_var(var),
            LinearCombination::from_var(next_var),
        );
        (cur, var) = (next, next_var);
    }
    cs
}

/// The checkpoint bytes after POLY and after each MSM step, in order.
fn snapshots<S: ProofSystem<Pairing = Bn254>>(
    circuit: &S::Circuit,
    pk: &S::ProvingKey,
) -> Vec<Vec<u8>> {
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let (msm_g1, msm_g2) = (GzkpMsm::new(v100()), GzkpMsm::new(v100()));
    let engines = Engines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm_g1,
        msm_g2: &msm_g2,
    };
    let poly = S::prove_poly(circuit, pk, &ntt, &NoopSink).expect("poly stage");
    let mut ckpt = S::checkpoint_from_poly(BLIND_SEED, poly);
    let mut out = vec![S::checkpoint_to_bytes(&ckpt)];
    while let Some(step) = S::checkpoint_next_step(&ckpt) {
        S::checkpoint_run_step(&mut ckpt, pk, &engines, step, &NoopSink).expect("msm step");
        out.push(S::checkpoint_to_bytes(&ckpt));
    }
    out
}

/// Decodes and re-encodes: what every mutation is judged by.
type Recode = fn(&[u8]) -> Result<Vec<u8>, String>;

fn recode<S: ProofSystem>(bytes: &[u8]) -> Result<Vec<u8>, String> {
    S::checkpoint_from_bytes(bytes).map(|ckpt| S::checkpoint_to_bytes(&ckpt))
}

/// `(snapshots, recode)` for Groth16 and PLONK over one BN254 circuit.
fn fixtures() -> &'static [(Vec<Vec<u8>>, Recode); 2] {
    static FIXTURES: OnceLock<[(Vec<Vec<u8>>, Recode); 2]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(SETUP_SEED);
        let cs = squaring_chain();
        let (pk, _) = gzkp_groth16::setup::<Bn254, _>(&cs, &mut rng).expect("groth16 setup");
        let circuit = PlonkCircuit::from_r1cs(&cs);
        let (plonk_pk, _) = gzkp_plonk::setup::<Bn254, _>(&circuit, &mut rng).expect("plonk setup");
        [
            (
                snapshots::<Groth16System<Bn254>>(&cs, &pk),
                recode::<Groth16System<Bn254>>,
            ),
            (
                snapshots::<PlonkSystem<Bn254>>(&circuit, &plonk_pk),
                recode::<PlonkSystem<Bn254>>,
            ),
        ]
    })
}

/// A mutated checkpoint must be rejected, or decode to exactly itself.
fn check(recode: Recode, mutated: &[u8], what: &str) -> Result<(), String> {
    if let Ok(back) = recode(mutated) {
        prop_assert!(
            back == mutated,
            "{what}: decoded but re-encodes differently"
        );
    }
    Ok(())
}

/// `(length, FNV-1a digest)` of every snapshot. Groth16's and PLONK's
/// post-POLY snapshot were computed at commit `4dffd43`, before the two
/// backends' codecs became one framing module; PLONK's four post-step
/// snapshots were recomputed when its simulated report (in the header)
/// began pricing the wires' value MSMs and five quotient transforms
/// instead of fifteen. [`BODY_GOLDEN`] pins that their bodies did not
/// move. All five PLONK rows were recomputed when
/// `PlonkCircuit::from_r1cs` began pinning the zero wire instead of a
/// constant-one variable (the chain keeps its three product gates and
/// its 8-row domain, so the body lengths held); the Groth16 rows did not
/// move.
const GOLDEN: [&[(usize, u64)]; 2] = [
    &[
        (0x943, 0x2ab7_0c8e_d4e3_0d8e),
        (0xce6, 0x213d_31ba_d99b_2a85),
        (0x107e, 0x2283_4cc4_4bf1_713b),
        (0x1424, 0xfccb_1755_e376_b687),
        (0x17b1, 0x8e49_6285_c4cf_c056),
        (0x1b5f, 0xf7c2_798a_32c8_eaec),
    ],
    &[
        (0x98b, 0xf642_5735_eb0c_bcaf),
        (0x14f8, 0xb756_8927_2721_d04f),
        (0x1ae8, 0x13cd_8e9e_96bc_404e),
        (0x2e46, 0x9e5f_d064_7596_d5ff),
        (0x374e, 0xb20b_118c_4d3e_df7e),
    ],
];

/// `(length, FNV-1a digest)` of every snapshot's backend body — the bytes
/// after [`body_offset`], i.e. without the header's simulated reports —
/// computed at commit `6d6fd49`, before PLONK committed its wires in the
/// Lagrange basis and read its coset constants from the key; PLONK's
/// rows recomputed with [`GOLDEN`]'s.
const BODY_GOLDEN: [&[(usize, u64)]; 2] = [
    &[
        (0x190, 0x98fa_b275_844b_e74c),
        (0x1b9, 0xd886_6906_ad90_a13f),
        (0x1e2, 0x076e_d2e1_b11b_7bde),
        (0x20b, 0x9543_5ee7_3e49_971f),
        (0x234, 0x0492_8fad_e38f_31b1),
        (0x27d, 0x5e1c_c81f_6e48_a2cf),
    ],
    &[
        (0x678, 0x75dc_79cb_72f6_e62d),
        (0x7b3, 0xfbeb_79ce_29e0_da31),
        (0x93c, 0xc8ba_4264_9b3d_c678),
        (0xd77, 0xe100_13f8_a639_f451),
        (0xf91, 0x25f6_c904_ca3b_ace5),
    ],
];

#[test]
fn checkpoint_bodies_match_the_golden_digests() {
    for (system, (snaps, _)) in fixtures().iter().enumerate() {
        let got: Vec<(usize, u64)> = snaps
            .iter()
            .map(|b| (b.len() - body_offset(b), fnv1a(&b[body_offset(b)..])))
            .collect();
        assert_eq!(got, BODY_GOLDEN[system], "system {system}");
    }
}

#[test]
fn checkpoint_bytes_match_the_golden_digests() {
    for (system, (snaps, recode)) in fixtures().iter().enumerate() {
        let got: Vec<(usize, u64)> = snaps.iter().map(|b| (b.len(), fnv1a(b))).collect();
        assert_eq!(got, GOLDEN[system], "system {system}");
        for bytes in snaps {
            assert_eq!(recode(bytes).as_deref(), Ok(&bytes[..]));
        }
    }
}

/// The exhaustive half: every truncation, every header byte under three
/// masks, and appended bytes, for every snapshot of both systems.
#[test]
fn truncated_header_flipped_and_extended_checkpoints_are_rejected_or_round_trip() {
    for (system, (snaps, recode)) in fixtures().iter().enumerate() {
        for (steps, bytes) in snaps.iter().enumerate() {
            let at = format!("system {system}, {steps} steps");
            for cut in 0..bytes.len() {
                assert!(
                    recode(&bytes[..cut]).is_err(),
                    "{at}: cut at {cut} accepted"
                );
            }

            // The fixed header and the length prefix of the first report.
            let mut mutated = bytes.clone();
            for offset in 0..FIXED_HEADER + 8 {
                for mask in [0x01u8, 0x80, 0xff] {
                    mutated[offset] ^= mask;
                    check(*recode, &mutated, &format!("{at}: {mask:#x} at {offset}")).unwrap();
                    mutated[offset] ^= mask;
                }
            }

            for extra in [1usize, 8, 33] {
                for fill in [0u8, 0xff] {
                    let mut longer = bytes.clone();
                    longer.extend(std::iter::repeat_n(fill, extra));
                    assert!(
                        recode(&longer).is_err(),
                        "{at}: {extra} more bytes accepted"
                    );
                }
            }
        }
    }
}

/// Steps complete in order, so the shared header check rejects a done
/// mask that is not a prefix, for both backends. Re-framed from the
/// one-step snapshot, `0b10` claims step 1 done and step 0 not while the
/// body still holds the one step's points.
#[test]
fn a_non_prefix_done_mask_is_rejected() {
    for (system, (snaps, recode)) in fixtures().iter().enumerate() {
        let mut forged = snaps[1].clone();
        assert_eq!(forged[FIXED_HEADER - 1], 0b01, "system {system}: mask byte");
        forged[FIXED_HEADER - 1] = 0b10;
        match recode(&forged) {
            Err(e) => assert!(e.contains("non-contiguous completion mask 0x2"), "{e}"),
            Ok(_) => panic!("system {system}: mask 0b10 decoded"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sampled half: single-byte flips anywhere past the fixed header.
    #[test]
    fn payload_flipped_checkpoints_are_rejected_or_round_trip(
        system in 0usize..2,
        steps_sel in any::<usize>(),
        sample_seed in any::<u64>(),
    ) {
        let (snaps, recode) = &fixtures()[system];
        let steps = steps_sel % snaps.len();
        let bytes = &snaps[steps];
        let mut mutated = bytes.clone();

        // The reports are most of the bytes: sample them and the
        // backend's own body (scalars, points) evenly.
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let body = body_offset(bytes);
        for sample in 0..64 {
            let offset = if sample % 2 == 0 {
                rng.gen_range(FIXED_HEADER..body)
            } else {
                rng.gen_range(body..bytes.len())
            };
            let mask = rng.gen_range(1u16..256) as u8;
            mutated[offset] ^= mask;
            check(*recode, &mutated, &format!("system {system}, {steps} steps: {mask:#x} at {offset}"))?;
            mutated[offset] ^= mask;
        }
    }
}
