//! Ghost-layer exchange (§4.3).
//!
//! "The ghost layer exchange is broken down into two parts. First, the
//! ghost-layers are packed into a separate buffer that is stored
//! contiguously in memory. Then, this buffer is sent to the neighboring
//! process in a single message using asynchronous MPI functions."
//!
//! The exchange runs dimension by dimension; each phase packs the full
//! (already-ghosted) extent of the previously exchanged dimensions, so
//! after the three phases the edge and corner ghosts needed by the D3C19
//! µ-kernel stencil are correct with only six messages.
//!
//! `CommOptions` mirrors Table 2: communication/computation overlap and
//! device-side packing ("GPUDirect"). Both are functionally transparent
//! here (correctness never depends on them); they change the recorded
//! traffic metadata which the cluster-scale model prices.

use crate::comm::Comm;
use crate::decompose::Decomposition;
use pf_fields::{FieldArray, Slab};

/// Communication options of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommOptions {
    /// Overlap halo exchange with inner-region computation.
    pub overlap: bool,
    /// Pack on the device and send directly from device memory
    /// (GPUDirect); when false, buffers stage through host memory.
    pub gpudirect: bool,
    /// Coalesce the per-field face messages of fields synchronized
    /// together into one packed message per (neighbour, epoch) — the
    /// per-field pack/unpack sequences are concatenated unchanged, so
    /// ghosts stay bitwise identical while per-message overhead drops
    /// with the field count. On by default; off, the caller exchanges
    /// each field as a batch of one at its own epoch.
    pub batch: bool,
}

impl Default for CommOptions {
    fn default() -> Self {
        CommOptions {
            overlap: false,
            gpudirect: false,
            batch: true,
        }
    }
}

/// Field part of the wire tag. Every halo message is a batch (of one or
/// more fields), so the part is one constant and exchanges in flight
/// together are told apart by their epochs alone.
const BATCH_FIELD_TAG: u64 = 0xFFFF;

fn tag(dim: usize, side: i32, epoch: u64) -> u64 {
    let s = if side < 0 { 0u64 } else { 1u64 };
    (epoch << 20) | (BATCH_FIELD_TAG << 4) | ((dim as u64) << 1) | s
}

/// Pack the interior cells adjacent to the `side` face of dimension `dim`
/// (width = ghost layers), full ghosted extent transversally.
pub fn pack_face(arr: &FieldArray, dim: usize, side: i32) -> Vec<f64> {
    let mut out = Vec::new();
    arr.read_box(arr.face(dim, side, Slab::Own), &mut out);
    out
}

/// Unpack a buffer received from the `side` neighbour into this block's
/// ghost layers on that side.
pub fn unpack_face(arr: &mut FieldArray, dim: usize, side: i32, data: &[f64]) {
    arr.write_box(arr.face(dim, side, Slab::Ghost), data);
}

/// First dimension whose ghost fill has to wait for a remote message —
/// every dimension before it is undivided in the process grid, so its
/// exchange phase is a local self-wrap (or a boundary no-op) that
/// [`begin_exchange_batched`] completes eagerly. Returns 3 when no dimension is
/// decomposed (single rank): the whole exchange completes in `begin`.
///
/// The overlapped schedule only needs frontier shells along dimensions
/// `>= first_deferred_dim`; shells along earlier dimensions would guard
/// ghosts that are already as fresh as owned data when the interior runs.
pub fn first_deferred_dim(dec: &Decomposition) -> usize {
    (0..3).find(|&d| dec.grid[d] > 1).unwrap_or(3)
}

/// What one dimension phase of the exchange does for a given
/// decomposition — a pure description of the protocol structure, exposed
/// so the static comm verifier (pf-analyze's protocol pass, driven from
/// pf-core) can model the exchange without constructing communicators.
/// Depends only on whether the dimension is divided (`grid[d] > 1`) and
/// periodic — never on the rank count, which is why verifying the model
/// under all divided-patterns proves the protocol for arbitrary ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DimPhase {
    /// Undivided and periodic: ghost fill is a local wrap, no messages.
    LocalWrap,
    /// Undivided and non-periodic: nothing to do (physical boundary).
    Skip,
    /// Divided: async sends to both axis neighbours, then blocking
    /// receives (non-periodic boundary ranks skip matched pairs).
    SendRecv,
}

/// The per-dimension phase structure [`begin_exchange_batched`] +
/// [`finish_exchange_batched`] execute for `dec`, in exchange order. The
/// point where `begin` hands over to `finish` is [`first_deferred_dim`]:
/// the first `SendRecv` entry.
pub fn exchange_shape(dec: &Decomposition) -> [DimPhase; 3] {
    [0, 1, 2].map(|d| {
        if dec.grid[d] > 1 {
            DimPhase::SendRecv
        } else if dec.periodic[d] {
            DimPhase::LocalWrap
        } else {
            DimPhase::Skip
        }
    })
}

/// Post both face sends of one dimension phase for a batch of fields
/// (asynchronous: channel sends never block): one message per (neighbour,
/// epoch) carrying every field's face buffer back to back, in batch order.
fn send_dim_batched(
    comm: &mut Comm,
    dec: &Decomposition,
    arrs: &[&mut FieldArray],
    epoch: u64,
    dim: usize,
) {
    let rank = comm.rank();
    for side in [-1i32, 1] {
        if let Some(nb) = dec.neighbor(rank, dim, side) {
            let mut buf = Vec::new();
            for arr in arrs {
                arr.read_box(arr.face(dim, side, Slab::Own), &mut buf);
            }
            let t = tag(dim, side, epoch);
            comm.send_batched(nb, t, buf, arrs.len());
        }
    }
}

/// Complete both face receives of one dimension phase, splitting each
/// message back into per-field segments and unpacking them in batch order.
fn recv_dim_batched(
    comm: &mut Comm,
    dec: &Decomposition,
    arrs: &mut [&mut FieldArray],
    epoch: u64,
    dim: usize,
) {
    let rank = comm.rank();
    for side in [-1i32, 1] {
        if let Some(nb) = dec.neighbor(rank, dim, side) {
            // The neighbour sent with the *opposite* side marker.
            let t = tag(dim, -side, epoch);
            let buf = comm.recv(nb, t);
            let mut off = 0usize;
            for arr in arrs.iter_mut() {
                let ghosts = arr.face(dim, side, Slab::Ghost);
                let len = ghosts.cells() * arr.components();
                arr.write_box(ghosts, &buf[off..off + len]);
                off += len;
            }
            assert_eq!(off, buf.len(), "batched face buffer size mismatch");
        }
    }
}

/// One full phase of the dimension-ordered exchange: periodic self-wrap
/// when the block is its own neighbour, otherwise send both sides then
/// receive both sides.
fn exchange_dim_batched(
    comm: &mut Comm,
    dec: &Decomposition,
    arrs: &mut [&mut FieldArray],
    epoch: u64,
    dim: usize,
) {
    if dec.grid[dim] == 1 && dec.periodic[dim] {
        for arr in arrs.iter_mut() {
            arr.apply_periodic(dim);
        }
        return;
    }
    send_dim_batched(comm, dec, arrs, epoch, dim);
    recv_dim_batched(comm, dec, arrs, epoch, dim);
}

/// Exchange all ghost layers of `arrs` with the six face neighbours, to
/// completion: [`finish_exchange_batched`] of [`begin_exchange_batched`].
///
/// Dimensions are exchanged in order; within a phase both sides are sent
/// before either is received. The per-field face buffers of each phase
/// travel as one packed message per (neighbour, epoch), concatenated in
/// batch order, so a batch of `n` fields costs 6 messages where `n`
/// one-field batches cost `6 n` — and leaves bitwise the same ghosts.
/// Non-periodic boundaries without a neighbour are skipped — physical
/// boundary conditions are the caller's responsibility. `_opts` is ignored:
/// every exchange is batched, and overlap is the caller splitting
/// `begin`/`finish`; the parameter stays for callers that pass it.
pub fn exchange_halo_batched(
    comm: &mut Comm,
    dec: &Decomposition,
    arrs: &mut [&mut FieldArray],
    epoch: u64,
    _opts: CommOptions,
) {
    let handle = begin_exchange_batched(comm, dec, arrs, epoch);
    finish_exchange_batched(comm, dec, arrs, handle);
}

/// In-flight halo exchange started by [`begin_exchange_batched`]. Must be
/// passed back to [`finish_exchange_batched`] (with the same fields in the
/// same order — the batch size is carried to check that); dropping it
/// without finishing would leave ghost layers stale and the neighbours'
/// tag-matched receives waiting forever.
#[must_use = "pass to finish_exchange_batched to complete the halo receives"]
#[derive(Debug)]
pub struct BatchHandle {
    epoch: u64,
    /// First dimension whose receives are still outstanding
    /// ([`first_deferred_dim`]); dimensions before it completed in `begin`.
    deferred: usize,
    nfields: usize,
}

/// Start a halo exchange: complete the exchange phases of every leading
/// undivided dimension (local wraps — no messages), then post the face
/// sends of the first decomposed dimension and return a completion handle.
/// The caller may then sweep interior cells — anything that reads no ghost
/// layer the deferred dimensions fill — while the messages are in flight,
/// and must call [`finish_exchange_batched`] before touching frontier
/// cells.
///
/// Packing reads owned interior cells only (plus transverse ghosts earlier
/// phases already filled), and each posted send owns a copy of the packed
/// faces, so the arrays may return to their owner between `begin` and
/// `finish` and kernels that *write other fields* cannot invalidate what
/// was posted.
pub fn begin_exchange_batched(
    comm: &mut Comm,
    dec: &Decomposition,
    arrs: &mut [&mut FieldArray],
    epoch: u64,
) -> BatchHandle {
    let rank = comm.rank();
    let _span = pf_trace::span_at("grid.halo_begin", rank);
    pf_trace::counter_at("grid.halo_exchanges", rank).incr(arrs.len() as u64);
    let deferred = first_deferred_dim(dec);
    for dim in 0..deferred {
        exchange_dim_batched(comm, dec, arrs, epoch, dim);
    }
    if deferred < 3 {
        send_dim_batched(comm, dec, arrs, epoch, deferred);
    }
    BatchHandle {
        epoch,
        deferred,
        nfields: arrs.len(),
    }
}

/// Complete a halo exchange: finish the deferred dimension's receives,
/// then run the remaining dimension phases (which must pack the freshly
/// received ghosts of earlier phases, so they cannot be posted early). The
/// pack/unpack sequence does not depend on how much ran between `begin`
/// and `finish`, so neither do the resulting ghost layers.
pub fn finish_exchange_batched(
    comm: &mut Comm,
    dec: &Decomposition,
    arrs: &mut [&mut FieldArray],
    handle: BatchHandle,
) {
    let rank = comm.rank();
    let _span = pf_trace::span_at("grid.halo_finish", rank);
    let BatchHandle {
        epoch,
        deferred,
        nfields,
    } = handle;
    assert_eq!(nfields, arrs.len(), "batch finish with a different batch");
    if deferred < 3 {
        recv_dim_batched(comm, dec, arrs, epoch, deferred);
    }
    for dim in (deferred + 1)..3 {
        exchange_dim_batched(comm, dec, arrs, epoch, dim);
    }
}

/// Bytes one full halo exchange moves per rank for a field (both
/// directions, all dims) — consumed by the cluster network model.
pub fn halo_bytes(shape: [usize; 3], ghost: usize, components: usize) -> u64 {
    let g = shape[0] + 2 * ghost;
    let gy = shape[1] + 2 * ghost;
    let gz = shape[2] + 2 * ghost;
    let per_dim = [gy * gz, g * gz, g * gy];
    let mut total = 0u64;
    for faces in per_dim {
        total += 2 * (ghost * faces * components * 8) as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use parking_lot::Mutex;
    use pf_fields::Layout;

    /// Fill every component with a function of the *global* cell index.
    fn fill_global(arr: &mut FieldArray, origin: [i64; 3], f: impl Fn(i64, i64, i64) -> f64) {
        for comp in 0..arr.components() {
            arr.fill_with(comp, |x, y, z| {
                f(
                    x as i64 + origin[0],
                    y as i64 + origin[1],
                    z as i64 + origin[2],
                ) + comp as f64
            });
        }
    }

    /// Interior and every ghost cell of `got` equal `want`, bit for bit.
    fn assert_ghosted_bitwise_eq(want: &FieldArray, got: &FieldArray, what: &str) {
        let g = want.ghost_layers() as isize;
        let n = want.shape().map(|n| n as isize);
        for comp in 0..want.components() {
            for z in -g..n[2] + g {
                for y in -g..n[1] + g {
                    for x in -g..n[0] + g {
                        assert_eq!(
                            want.get(comp, x, y, z).to_bits(),
                            got.get(comp, x, y, z).to_bits(),
                            "{what}: {} comp {comp} at ({x},{y},{z})",
                            want.name(),
                        );
                    }
                }
            }
        }
    }

    /// One-field exchange to completion (a batch of one).
    fn exchange_one(comm: &mut Comm, dec: &Decomposition, arr: &mut FieldArray, epoch: u64) {
        exchange_halo_batched(comm, dec, &mut [arr], epoch, CommOptions::default());
    }

    #[test]
    fn pack_unpack_roundtrip_shapes() {
        let mut a = FieldArray::new("xh_a", [4, 3, 2], 2, 1, Layout::Fzyx);
        a.fill_with(0, |x, y, z| (x + 10 * y + 100 * z) as f64);
        a.fill_with(1, |x, y, z| -((x + 10 * y + 100 * z) as f64));
        let buf = pack_face(&a, 0, 1);
        // width 1 × (3+2) × (2+2) × 2 comps
        assert_eq!(buf.len(), 5 * 4 * 2);
        let mut b = FieldArray::new("xh_b", [4, 3, 2], 2, 1, Layout::Fzyx);
        unpack_face(&mut b, 0, -1, &buf);
        // b's low-x ghost now holds a's high-x interior.
        assert_eq!(b.get(0, -1, 0, 0), a.get(0, 3, 0, 0));
        assert_eq!(b.get(1, -1, 2, 1), a.get(1, 3, 2, 1));
    }

    #[test]
    fn two_rank_exchange_matches_periodic_reference() {
        // 2 ranks side by side in x over a periodic 8×4×4 domain must see
        // exactly what a single periodic block of 8×4×4 sees in its ghosts.
        let global = [8usize, 4, 4];
        let dec = Decomposition::new(global, 2, [true; 3]);
        assert_eq!(dec.grid, [2, 1, 1]);

        // Reference: one block with global extent, periodic everywhere.
        let mut reference = FieldArray::new("xh_ref", global, 1, 1, Layout::Fzyx);
        reference.fill_with(0, |x, y, z| (x + 10 * y + 100 * z) as f64);
        for d in 0..3 {
            reference.apply_periodic(d);
        }

        let results: Mutex<Vec<(usize, FieldArray)>> = Mutex::new(Vec::new());
        run_ranks(2, |mut comm| {
            let b = dec.block(comm.rank());
            let mut arr = FieldArray::new("xh_blk", b.shape, 1, 1, Layout::Fzyx);
            fill_global(&mut arr, b.origin, |x, y, z| (x + 10 * y + 100 * z) as f64);
            exchange_one(&mut comm, &dec, &mut arr, 0);
            results.lock().push((comm.rank(), arr));
        });

        let results = results.lock();
        for (rank, arr) in results.iter() {
            let b = dec.block(*rank);
            let g = 1isize;
            for z in -g..(b.shape[2] as isize + g) {
                for y in -g..(b.shape[1] as isize + g) {
                    for x in -g..(b.shape[0] as isize + g) {
                        // Map to reference coordinates (periodic wrap).
                        let rx = (x + b.origin[0] as isize).rem_euclid(global[0] as isize);
                        let ry = (y + b.origin[1] as isize).rem_euclid(global[1] as isize);
                        let rz = (z + b.origin[2] as isize).rem_euclid(global[2] as isize);
                        let want = reference.get(0, rx, ry, rz);
                        let got = arr.get(0, x, y, z);
                        assert_eq!(got, want, "rank {rank} ghost mismatch at ({x},{y},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn eight_rank_exchange_fills_corners() {
        let global = [8usize, 8, 8];
        let dec = Decomposition::new(global, 8, [true; 3]);
        let ok = Mutex::new(0usize);
        run_ranks(8, |mut comm| {
            let b = dec.block(comm.rank());
            let mut arr = FieldArray::new("xh_c", b.shape, 1, 1, Layout::Fzyx);
            fill_global(&mut arr, b.origin, |x, y, z| (x + 10 * y + 100 * z) as f64);
            exchange_one(&mut comm, &dec, &mut arr, 0);
            // The (−1,−1,−1) corner ghost must hold the periodic wrap value.
            let want = {
                let gx = (b.origin[0] - 1).rem_euclid(8);
                let gy = (b.origin[1] - 1).rem_euclid(8);
                let gz = (b.origin[2] - 1).rem_euclid(8);
                (gx + 10 * gy + 100 * gz) as f64
            };
            assert_eq!(arr.get(0, -1, -1, -1), want, "rank {}", comm.rank());
            *ok.lock() += 1;
        });
        assert_eq!(*ok.lock(), 8);
    }

    #[test]
    fn leading_local_dims_complete_in_begin() {
        // [4,8,8] over 4 ranks decomposes [1,2,2]: x is undivided, so
        // begin must finish the x self-wrap eagerly and defer from y on.
        let global = [4usize, 8, 8];
        let dec = Decomposition::new(global, 4, [true; 3]);
        assert_eq!(dec.grid, [1, 2, 2]);
        assert_eq!(first_deferred_dim(&dec), 1);
        let ok = Mutex::new(0usize);
        run_ranks(4, |mut comm| {
            let b = dec.block(comm.rank());
            let mut arr = FieldArray::new("ld_blk", b.shape, 1, 1, Layout::Fzyx);
            fill_global(&mut arr, b.origin, |x, y, z| {
                ((x + 17 * y + 131 * z) as f64).sin()
            });
            let h = begin_exchange_batched(&mut comm, &dec, &mut [&mut arr], 0);
            // After begin, the x ghost layers (local periodic wrap) must
            // already be final: the frontier needs no x shells.
            let g = 1isize;
            for z in 0..b.shape[2] as isize {
                for y in 0..b.shape[1] as isize {
                    assert_eq!(
                        arr.get(0, -g, y, z).to_bits(),
                        arr.get(0, b.shape[0] as isize - g, y, z).to_bits(),
                        "x wrap not complete after begin"
                    );
                }
            }
            finish_exchange_batched(&mut comm, &dec, &mut [&mut arr], h);
            *ok.lock() += 1;
        });
        assert_eq!(*ok.lock(), 4);
    }

    #[test]
    fn exchange_shape_mirrors_runtime_structure() {
        // [1,2,2] grid, periodic: x wraps locally, y/z message.
        let dec = Decomposition::new([4, 8, 8], 4, [true; 3]);
        assert_eq!(dec.grid, [1, 2, 2]);
        assert_eq!(
            exchange_shape(&dec),
            [DimPhase::LocalWrap, DimPhase::SendRecv, DimPhase::SendRecv]
        );
        // The deferred split point is the first SendRecv phase.
        assert_eq!(
            first_deferred_dim(&dec),
            exchange_shape(&dec)
                .iter()
                .position(|p| *p == DimPhase::SendRecv)
                .unwrap_or(3)
        );
        // Non-periodic undivided dims are physical boundaries: no wrap.
        let dec = Decomposition::new([4, 8, 8], 4, [false, true, true]);
        assert_eq!(exchange_shape(&dec)[0], DimPhase::Skip);
        // Single rank, periodic everywhere: all local wraps, nothing
        // deferred.
        let dec = Decomposition::new([4, 4, 4], 1, [true; 3]);
        assert_eq!(exchange_shape(&dec), [DimPhase::LocalWrap; 3]);
        assert_eq!(first_deferred_dim(&dec), 3);
    }

    #[test]
    fn halo_bytes_counts_both_directions() {
        let b = halo_bytes([10, 10, 10], 1, 2);
        // x faces: 12·12 cells ×2 sides; y: 12·12; z: 12·12 — ×2 comps ×8 B
        assert_eq!(b, (3 * 2 * 144 * 2 * 8) as u64);
    }

    /// The batching claim at the grid layer: a two-field batch leaves
    /// every ghost cell of both fields bitwise identical to two
    /// independent one-field exchanges, at a third of the messages.
    #[test]
    fn batched_exchange_matches_unbatched_bitwise() {
        let global = [8usize, 8, 4];
        let dec = Decomposition::new(global, 4, [true; 3]);
        let ok = Mutex::new(0usize);
        run_ranks(4, |mut comm| {
            let b = dec.block(comm.rank());
            let mut a0 = FieldArray::new("bt_a", b.shape, 2, 1, Layout::Fzyx);
            let mut b0 = FieldArray::new("bt_b", b.shape, 1, 1, Layout::Fzyx);
            fill_global(&mut a0, b.origin, |x, y, z| {
                ((x + 23 * y + 171 * z) as f64).cos()
            });
            fill_global(&mut b0, b.origin, |x, y, z| {
                ((x + 23 * y + 171 * z) as f64 * 0.37).cos()
            });
            let (mut a1, mut b1) = (a0.clone(), b0.clone());
            let sent = |comm: &Comm| {
                comm.stats
                    .messages_sent
                    .load(std::sync::atomic::Ordering::Relaxed)
            };
            // Unbatched reference: two independent exchanges.
            let m0 = sent(&comm);
            exchange_one(&mut comm, &dec, &mut a0, 0);
            exchange_one(&mut comm, &dec, &mut b0, 1);
            let unbatched_msgs = sent(&comm) - m0;
            // Batched: one message per (neighbour, epoch) carrying both.
            let m0 = sent(&comm);
            exchange_halo_batched(
                &mut comm,
                &dec,
                &mut [&mut a1, &mut b1],
                2,
                CommOptions::default(),
            );
            assert_eq!(2 * (sent(&comm) - m0), unbatched_msgs);
            let what = format!("rank {}", comm.rank());
            assert_ghosted_bitwise_eq(&a0, &a1, &what);
            assert_ghosted_bitwise_eq(&b0, &b1, &what);
            *ok.lock() += 1;
        });
        assert_eq!(*ok.lock(), 4);
    }

    /// Whatever happens between `begin` and `finish` — nothing (the
    /// blocking schedule, one two-field batch), or a second one-field
    /// exchange begun before the first is finished (the overlapped
    /// schedule with batching off) — every ghost cell ends up the same,
    /// including on a grid with a leading undivided dimension.
    #[test]
    fn overlapped_batched_exchange_matches_blocking_bitwise() {
        for (global, ranks) in [([8usize, 8, 4], 4usize), ([4, 8, 8], 4)] {
            let dec = Decomposition::new(global, ranks, [true; 3]);
            let ok = Mutex::new(0usize);
            run_ranks(ranks, |mut comm| {
                let b = dec.block(comm.rank());
                let mut a0 = FieldArray::new("ob_a", b.shape, 2, 1, Layout::Fzyx);
                let mut b0 = FieldArray::new("ob_b", b.shape, 1, 1, Layout::Fzyx);
                fill_global(&mut a0, b.origin, |x, y, z| {
                    ((x + 29 * y + 145 * z) as f64).sin()
                });
                fill_global(&mut b0, b.origin, |x, y, z| {
                    ((3 * x + 7 * y + 19 * z) as f64).cos()
                });
                let (mut a1, mut b1) = (a0.clone(), b0.clone());
                exchange_halo_batched(
                    &mut comm,
                    &dec,
                    &mut [&mut a0, &mut b0],
                    0,
                    CommOptions::default(),
                );
                // Two one-field batches in flight at once, at their own epochs.
                let ha = begin_exchange_batched(&mut comm, &dec, &mut [&mut a1], 1);
                let hb = begin_exchange_batched(&mut comm, &dec, &mut [&mut b1], 2);
                finish_exchange_batched(&mut comm, &dec, &mut [&mut a1], ha);
                finish_exchange_batched(&mut comm, &dec, &mut [&mut b1], hb);
                let what = format!("rank {} grid {:?}", comm.rank(), dec.grid);
                assert_ghosted_bitwise_eq(&a0, &a1, &what);
                assert_ghosted_bitwise_eq(&b0, &b1, &what);
                *ok.lock() += 1;
            });
            assert_eq!(*ok.lock(), ranks);
        }
    }
}
