//! The checkpoint wire framing every backend shares: a backend writes
//! the header with [`begin`], appends its own body with `put_bytes` /
//! [`put_point`], and decodes through a [`Reader`].
//!
//! ```text
//! magic:[u8;7] ++ version:u8
//! fr_bits:u32 fr_limbs:u32 g1_coord_len:u32 g2_coord_len:u32   // curve shape guard
//! seed:u64  done:u8 (bit i ⇒ MSM step i complete)
//! poly_report: len:u64 ++ JSON      msm_report: len:u64 ++ JSON
//! …backend body: scalar vectors, then len:u64 ++ compressed affine point sections…
//! ```
//!
//! All integers are little-endian. Decoding checks the magic, the
//! version, the curve shape against the target `P`, the done mask against
//! the backend's step count and for being a prefix (steps complete in
//! order), the reports' canonical form, every point against its curve
//! equation and that no bytes trail the body — bytes from the wrong
//! curve, a truncated stream or a forged field return an error, never a
//! panic, and whatever decodes re-encodes to its input.

use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::serialize::{compress, decompress, CoordField};
use gzkp_curves::{Affine, CurveParams};
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::StageReport;
use gzkp_telemetry::{stage_report_from_json, stage_report_to_json};

/// Current checkpoint wire-format version, for every backend's magic.
pub(crate) const CHECKPOINT_VERSION: u8 = 1;

fn curve_shape<P: PairingConfig>() -> [u32; 4]
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
{
    [
        P::Fr::MODULUS_BITS,
        P::Fr::NUM_LIMBS as u32,
        <P::G1 as CurveParams>::Base::encoded_len() as u32,
        <P::G2 as CurveParams>::Base::encoded_len() as u32,
    ]
}

/// Starts a checkpoint over curve family `P`: everything up to and
/// including the two report sections, in a buffer with room for
/// `body_bytes` more.
pub fn begin<P: PairingConfig>(
    magic: &[u8; 7],
    seed: u64,
    done: u8,
    poly_report: &StageReport,
    msm_report: &StageReport,
    body_bytes: usize,
) -> Vec<u8>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
{
    let mut out = Vec::with_capacity(64 + body_bytes);
    out.extend(magic);
    out.push(CHECKPOINT_VERSION);
    for word in curve_shape::<P>() {
        out.extend(word.to_le_bytes());
    }
    out.extend(seed.to_le_bytes());
    out.push(done);
    put_bytes(&mut out, &stage_report_to_json(poly_report));
    put_bytes(&mut out, &stage_report_to_json(msm_report));
    out
}

/// Appends a length-prefixed section.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend((bytes.len() as u64).to_le_bytes());
    out.extend(bytes);
}

/// Appends a compressed affine point as a length-prefixed section.
pub fn put_point<C: CurveParams>(out: &mut Vec<u8>, point: &Affine<C>)
where
    C::Base: CoordField,
{
    put_bytes(out, &compress(point));
}

/// Bounds-checked cursor over untrusted checkpoint bytes, opened past
/// the header. Every read fails, naming the offset, when the stream ends
/// before it is satisfied.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Seed of the job's blinding RNG.
    pub seed: u64,
    /// Bit `i` set ⇒ MSM step `i` complete; always a prefix.
    pub done: u8,
    /// The POLY and MSM report sections, parsed by [`Reader::finish`].
    reports: [&'a [u8]; 2],
}

impl<'a> Reader<'a> {
    /// Checks the magic, version and curve shape of `bytes` against
    /// `magic` and `P`, and reads the rest of the header; `steps` is the
    /// backend's MSM step count, which bounds the done mask; the mask must
    /// also be a prefix `0b0…01…1`, as steps complete in order.
    ///
    /// # Errors
    ///
    /// Names the first header field that is malformed.
    pub fn open<P: PairingConfig>(
        bytes: &'a [u8],
        magic: &[u8; 7],
        steps: usize,
    ) -> Result<Self, String>
    where
        <P::G1 as CurveParams>::Base: CoordField,
        <P::G2 as CurveParams>::Base: CoordField,
    {
        let mut r = Reader {
            buf: bytes,
            pos: 0,
            seed: 0,
            done: 0,
            reports: [&[]; 2],
        };
        if r.take(magic.len())? != magic {
            return Err(format!(
                "not a {} checkpoint (bad magic)",
                String::from_utf8_lossy(magic)
            ));
        }
        let version = r.take(1)?[0];
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let shape = [r.u32()?, r.u32()?, r.u32()?, r.u32()?];
        if shape != curve_shape::<P>() {
            return Err(format!(
                "checkpoint curve shape {shape:?} does not match target curve {:?}",
                curve_shape::<P>()
            ));
        }
        r.seed = r.u64()?;
        r.done = r.take(1)?[0];
        if u32::from(r.done) >= 1u32 << steps {
            return Err(format!("invalid msm completion mask {:#x}", r.done));
        }
        // Steps complete strictly in order, so the mask must be a prefix.
        if r.done & r.done.wrapping_add(1) != 0 {
            return Err(format!("non-contiguous completion mask {:#x}", r.done));
        }
        r.reports = [r.section()?, r.section()?];
        Ok(r)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("checkpoint truncated at offset {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("four bytes taken"),
        ))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("eight bytes taken"),
        ))
    }

    /// A little-endian `u64` element count, as a `usize`.
    pub fn count(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "element count overflow".to_string())
    }

    /// A length-prefixed section written by [`put_bytes`].
    pub(crate) fn section(&mut self) -> Result<&'a [u8], String> {
        let len = self.count()?;
        self.take(len)
    }

    /// A point section written by [`put_point`]; bytes that are not a
    /// point of `C` are an error naming `which`.
    pub fn point<C: CurveParams>(&mut self, which: &str) -> Result<Affine<C>, String>
    where
        C::Base: CoordField,
    {
        decompress::<C>(self.section()?).ok_or_else(|| format!("{which}: invalid point"))
    }

    /// Ends decoding: checks that nothing trails the last field, then
    /// parses the `[poly, msm]` stage reports — last, because they are the
    /// one expensive part and a structurally broken stream should be
    /// rejected before paying for it.
    ///
    /// # Errors
    ///
    /// Fails on trailing bytes or a report that is not canonical JSON.
    pub fn finish(self) -> Result<[StageReport; 2], String> {
        let trailing = self.buf.len() - self.pos;
        if trailing != 0 {
            return Err(format!("{trailing} trailing bytes after checkpoint"));
        }
        Ok([
            stage_report_from_json(self.reports[0], "poly")?,
            stage_report_from_json(self.reports[1], "msm")?,
        ])
    }
}
