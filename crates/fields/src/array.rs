//! Ghosted, padded field storage.
//!
//! A [`FieldArray`] owns the values of one simulation field (all components)
//! on one block: an interior of `shape` cells surrounded by `ghost` layers
//! on every side, with the innermost (x) extent padded to a multiple of the
//! SIMD width so that row starts stay aligned — the allocation scheme the
//! paper's CPU backend uses for aligned loads/stores (§3.5).
//!
//! How a block's cells are enumerated and copied is decided here once: a
//! [`Box3`] names the cells, and `read_box`/`write_box`/`copy_box` walk
//! them in one canonical order. Boundary fill, halo pack/unpack and the
//! checkpoint payload are all calls of those.

use std::ops::Range;

/// Memory layout of the component index relative to the spatial indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Structure-of-arrays: component is the outermost (slowest) index,
    /// x the fastest. waLBerla's `fzyx`, best for SIMD.
    Fzyx,
    /// Array-of-structures: component innermost. waLBerla's `zyxf`.
    Zyxf,
}

/// Number of f64 lanes rows are padded to (AVX-512 width).
pub const SIMD_F64_LANES: usize = 8;

/// One block's worth of one field.
#[derive(Clone, Debug)]
pub struct FieldArray {
    name: String,
    shape: [usize; 3],
    ghost: usize,
    comps: usize,
    layout: Layout,
    /// Allocated x extent (interior + ghosts, padded up).
    alloc_x: usize,
    alloc: [usize; 3],
    data: Vec<f64>,
}

impl FieldArray {
    pub fn new(name: &str, shape: [usize; 3], comps: usize, ghost: usize, layout: Layout) -> Self {
        assert!(comps >= 1);
        assert!(shape.iter().all(|&s| s >= 1), "empty field {shape:?}");
        let alloc = [
            shape[0] + 2 * ghost,
            shape[1] + 2 * ghost,
            shape[2] + 2 * ghost,
        ];
        let alloc_x = match layout {
            Layout::Fzyx => alloc[0].div_ceil(SIMD_F64_LANES) * SIMD_F64_LANES,
            // With the component innermost, padding x would not align rows
            // anyway; allocate tight.
            Layout::Zyxf => alloc[0],
        };
        let len = match layout {
            Layout::Fzyx => comps * alloc[2] * alloc[1] * alloc_x,
            Layout::Zyxf => alloc[2] * alloc[1] * alloc_x * comps,
        };
        FieldArray {
            name: name.to_owned(),
            shape,
            ghost,
            comps,
            layout,
            alloc_x,
            alloc,
            data: vec![0.0; len],
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Interior shape (without ghosts).
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    pub fn ghost_layers(&self) -> usize {
        self.ghost
    }

    pub fn components(&self) -> usize {
        self.comps
    }

    pub fn layout(&self) -> Layout {
        self.layout
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Strides in f64 elements for (comp, x, y, z).
    pub fn strides(&self) -> [isize; 4] {
        match self.layout {
            Layout::Fzyx => {
                let sx = 1isize;
                let sy = self.alloc_x as isize;
                let sz = (self.alloc[1] * self.alloc_x) as isize;
                let sc = (self.alloc[2] * self.alloc[1] * self.alloc_x) as isize;
                [sc, sx, sy, sz]
            }
            Layout::Zyxf => {
                let sc = 1isize;
                let sx = self.comps as isize;
                let sy = (self.alloc_x * self.comps) as isize;
                let sz = (self.alloc[1] * self.alloc_x * self.comps) as isize;
                [sc, sx, sy, sz]
            }
        }
    }

    /// Linear index of interior-relative coordinates. Coordinates may range
    /// over `-ghost .. shape + ghost`.
    #[inline]
    pub fn index(&self, comp: usize, x: isize, y: isize, z: isize) -> usize {
        debug_assert!(comp < self.comps, "component {comp} out of range");
        let g = self.ghost as isize;
        debug_assert!(
            x >= -g
                && (x) < self.shape[0] as isize + g
                && y >= -g
                && y < self.shape[1] as isize + g
                && z >= -g
                && z < self.shape[2] as isize + g,
            "access ({x},{y},{z}) outside ghosted extent of {}",
            self.name
        );
        let [sc, sx, sy, sz] = self.strides();
        let base = comp as isize * sc + (x + g) * sx + (y + g) * sy + (z + g) * sz;
        base as usize
    }

    #[inline]
    pub fn get(&self, comp: usize, x: isize, y: isize, z: isize) -> f64 {
        self.data[self.index(comp, x, y, z)]
    }

    #[inline]
    pub fn set(&mut self, comp: usize, x: isize, y: isize, z: isize, v: f64) {
        let i = self.index(comp, x, y, z);
        self.data[i] = v;
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill the whole allocation (interior + ghosts) with a value.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Fill one component's interior from a function of the cell index.
    pub fn fill_with(&mut self, comp: usize, mut f: impl FnMut(usize, usize, usize) -> f64) {
        let (nx, sx) = (self.shape[0], self.strides()[1] as usize);
        for row in self.rows(self.interior(), comp..comp + 1) {
            let dst = self.data[row.start..].iter_mut().step_by(sx).take(nx);
            for (x, v) in dst.enumerate() {
                *v = f(x, row.y as usize, row.z as usize);
            }
        }
    }

    /// Swap contents with another array of identical geometry (the
    /// src/dst pointer swap at the end of a timestep — Algorithm 1, step 5).
    pub fn swap(&mut self, other: &mut FieldArray) {
        assert_eq!(self.shape, other.shape, "swap: shape mismatch");
        assert_eq!(self.comps, other.comps, "swap: component mismatch");
        assert_eq!(self.ghost, other.ghost, "swap: ghost mismatch");
        assert_eq!(self.layout, other.layout, "swap: layout mismatch");
        std::mem::swap(&mut self.data, &mut other.data);
    }

    /// The owned cells.
    pub fn interior(&self) -> Box3 {
        Box3 {
            lo: [0; 3],
            hi: self.shape.map(|n| n as isize),
        }
    }

    /// The ghost-width slab at the `side` (`< 0` low, else high) face of
    /// dimension `dim`: the outermost owned planes or the ghost planes
    /// beyond them, over the full ghosted extent transversally — so filling
    /// ghosts dimension by dimension carries earlier dimensions' results
    /// into edges and corners. Needs `shape[dim] >= ghost`.
    pub fn face(&self, dim: usize, side: i32, slab: Slab) -> Box3 {
        let (g, n) = (self.ghost as isize, self.shape[dim] as isize);
        let lo = match (side < 0, slab) {
            (true, Slab::Ghost) => -g,
            (true, Slab::Own) => 0,
            (false, Slab::Own) => n - g,
            (false, Slab::Ghost) => n,
        };
        let ghosted = Box3 {
            lo: [-g; 3],
            hi: self.shape.map(|n| n as isize + g),
        };
        ghosted.with_range(dim, lo, lo + g)
    }

    /// The x-rows of `b` for components `comps` in the canonical order
    /// every box operation shares: component-major, then z, then y. The
    /// strides are read once per box; the iterator does not borrow `self`.
    fn rows(&self, b: Box3, comps: Range<usize>) -> impl Iterator<Item = Row> {
        let g = self.ghost as isize;
        let empty = b.cells() == 0;
        assert!(
            empty || (0..3).all(|d| b.lo[d] >= -g && b.hi[d] <= self.shape[d] as isize + g),
            "box {b:?} outside the ghosted extent of {}",
            self.name
        );
        assert!(comps.end <= self.comps, "components {comps:?} out of range");
        let [sc, sx, sy, sz] = self.strides().map(|s| s as usize);
        let at = move |v: isize| (v + g) as usize;
        // Clamped because an empty box may lie anywhere.
        let x0 = at(b.lo[0].max(-g)) * sx;
        let comps = if empty { 0..0 } else { comps };
        comps.flat_map(move |c| {
            (b.lo[2]..b.hi[2]).flat_map(move |z| {
                (b.lo[1]..b.hi[1]).map(move |y| Row {
                    y,
                    z,
                    start: c * sc + at(z) * sz + at(y) * sy + x0,
                })
            })
        })
    }

    /// Append the values of `b` to `out`: component-major, z, y, x-fastest.
    pub fn read_box(&self, b: Box3, out: &mut Vec<f64>) {
        let (nx, sx) = (b.extent()[0], self.strides()[1] as usize);
        out.reserve(b.cells() * self.comps);
        for row in self.rows(b, 0..self.comps) {
            out.extend(self.data[row.start..].iter().step_by(sx).take(nx));
        }
    }

    /// Overwrite the cells of `b` with `vals`, in [`Self::read_box`] order.
    pub fn write_box(&mut self, b: Box3, vals: &[f64]) {
        let (nx, sx) = (b.extent()[0], self.strides()[1] as usize);
        assert_eq!(vals.len(), b.cells() * self.comps, "box size mismatch");
        for (row, src) in self.rows(b, 0..self.comps).zip(vals.chunks(nx.max(1))) {
            for (dst, v) in self.data[row.start..].iter_mut().step_by(sx).zip(src) {
                *dst = *v;
            }
        }
    }

    /// Copy the cells of `src` onto the same-shaped, disjoint box `dst`.
    pub fn copy_box(&mut self, src: Box3, dst: Box3) {
        assert_eq!(src.extent(), dst.extent(), "copy_box: shape mismatch");
        let (nx, sx) = (src.extent()[0], self.strides()[1] as usize);
        // Same shape, same strides: every cell moves as far as the first.
        let first = |b| self.rows(b, 0..self.comps).next().map(|r| r.start as isize);
        let (Some(from), Some(to)) = (first(src), first(dst)) else {
            return;
        };
        for row in self.rows(src, 0..self.comps) {
            for i in (0..nx).map(|i| row.start + i * sx) {
                self.data[(i as isize + to - from) as usize] = self.data[i];
            }
        }
    }

    /// Copy ghost layers from the opposite interior side of the same block —
    /// single-block periodic boundaries in dimension `d`.
    pub fn apply_periodic(&mut self, d: usize) {
        for side in [-1, 1] {
            self.copy_box(
                self.face(d, -side, Slab::Own),
                self.face(d, side, Slab::Ghost),
            );
        }
    }

    /// Zero-gradient (Neumann) boundaries: copy the nearest interior plane
    /// into each ghost plane of dimension `d`.
    pub fn apply_neumann(&mut self, d: usize) {
        let n = self.shape[d] as isize;
        for side in [-1, 1] {
            let ghost = self.face(d, side, Slab::Ghost);
            for plane in ghost.lo[d]..ghost.hi[d] {
                let edge = plane.clamp(0, n - 1);
                self.copy_box(
                    ghost.with_range(d, edge, edge + 1),
                    ghost.with_range(d, plane, plane + 1),
                );
            }
        }
    }

    /// The interior's values in [`Self::read_box`] order.
    pub fn read_interior(&self) -> Vec<f64> {
        let mut vals = Vec::new();
        self.read_box(self.interior(), &mut vals);
        vals
    }

    /// Sum of one component over the interior (diagnostics / conservation
    /// tests).
    pub fn interior_sum(&self, comp: usize) -> f64 {
        let cells = self.interior().cells();
        let of_comp = &self.read_interior()[comp * cells..][..cells];
        of_comp.iter().fold(0.0, |s, v| s + v)
    }

    /// Max |a - b| over the interiors of two arrays (test helper).
    pub fn max_abs_diff(&self, other: &FieldArray) -> f64 {
        assert_eq!(self.shape, other.shape);
        assert_eq!(self.comps, other.comps);
        let (a, b) = (self.read_interior(), other.read_interior());
        a.iter().zip(&b).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }
}

/// A half-open box of cells in interior-relative `(x, y, z)` coordinates;
/// it may reach into the ghost layers. Storage coordinates — iteration
/// spaces the engines sweep are `pf_grid::IterRegion`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Box3 {
    pub lo: [isize; 3],
    pub hi: [isize; 3],
}

impl Box3 {
    pub fn extent(&self) -> [usize; 3] {
        [0, 1, 2].map(|d| (self.hi[d] - self.lo[d]).max(0) as usize)
    }

    /// Cells per component.
    pub fn cells(&self) -> usize {
        self.extent().iter().product()
    }

    /// This box with dimension `dim` narrowed (or moved) to `lo..hi`.
    pub fn with_range(mut self, dim: usize, lo: isize, hi: isize) -> Box3 {
        (self.lo[dim], self.hi[dim]) = (lo, hi);
        self
    }
}

/// Which side of a block face a [`FieldArray::face`] slab lies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slab {
    /// The outermost owned planes — what a neighbour's ghosts mirror.
    Own,
    /// The ghost planes beyond the face.
    Ghost,
}

/// One x-row of a box: its `(y, z)` and the offset of its first element.
struct Row {
    y: isize,
    z: isize,
    start: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_padding_aligns_fzyx() {
        let f = FieldArray::new("t", [5, 4, 3], 2, 1, Layout::Fzyx);
        // alloc x = 7 → padded to 8
        assert_eq!(f.strides()[2], 8); // y stride = padded x extent
    }

    #[test]
    fn zyxf_puts_component_innermost() {
        let f = FieldArray::new("t", [4, 4, 4], 3, 1, Layout::Zyxf);
        let s = f.strides();
        assert_eq!(s[0], 1); // comp stride
        assert_eq!(s[1], 3); // x stride = ncomp
    }

    #[test]
    fn get_set_roundtrip_with_ghosts() {
        let mut f = FieldArray::new("t", [4, 4, 4], 2, 1, Layout::Fzyx);
        f.set(1, -1, 3, 4, 7.5);
        assert_eq!(f.get(1, -1, 3, 4), 7.5);
        f.set(0, 0, 0, 0, 1.0);
        assert_eq!(f.get(0, 0, 0, 0), 1.0);
        assert_eq!(f.get(1, -1, 3, 4), 7.5);
    }

    #[test]
    fn distinct_cells_have_distinct_indices() {
        let f = FieldArray::new("t", [3, 3, 3], 2, 1, Layout::Fzyx);
        let mut seen = std::collections::HashSet::new();
        for c in 0..2 {
            for z in -1..4 {
                for y in -1..4 {
                    for x in -1..4 {
                        assert!(
                            seen.insert(f.index(c, x, y, z)),
                            "collision at {c},{x},{y},{z}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn periodic_wraps_x() {
        let mut f = FieldArray::new("t", [4, 2, 2], 1, 1, Layout::Fzyx);
        f.fill_with(0, |x, _, _| x as f64);
        f.apply_periodic(0);
        assert_eq!(f.get(0, -1, 0, 0), 3.0);
        assert_eq!(f.get(0, 4, 0, 0), 0.0);
    }

    #[test]
    fn neumann_replicates_edge() {
        let mut f = FieldArray::new("t", [4, 2, 2], 1, 1, Layout::Fzyx);
        f.fill_with(0, |x, _, _| (x * x) as f64);
        f.apply_neumann(0);
        assert_eq!(f.get(0, -1, 0, 0), 0.0);
        assert_eq!(f.get(0, 4, 0, 0), 9.0);
    }

    #[test]
    fn swap_exchanges_contents() {
        let mut a = FieldArray::new("a", [2, 2, 2], 1, 1, Layout::Fzyx);
        let mut b = FieldArray::new("b", [2, 2, 2], 1, 1, Layout::Fzyx);
        a.fill(1.0);
        b.fill(2.0);
        a.swap(&mut b);
        assert_eq!(a.get(0, 0, 0, 0), 2.0);
        assert_eq!(b.get(0, 0, 0, 0), 1.0);
    }

    #[test]
    fn interior_sum_ignores_ghosts() {
        let mut f = FieldArray::new("t", [2, 2, 1], 1, 1, Layout::Fzyx);
        f.fill(100.0); // pollute ghosts
        f.fill_with(0, |_, _, _| 1.0);
        assert_eq!(f.interior_sum(0), 4.0);
    }

    /// The per-element boundary fills the box walk replaced, kept as the
    /// reference the property test compares against.
    fn reference_fill(f: &mut FieldArray, d: usize, periodic: bool) {
        let g = f.ghost as isize;
        let n = f.shape.map(|n| n as isize);
        for comp in 0..f.comps {
            for off in 0..g {
                let pairs = if periodic {
                    [(-g + off, n[d] - g + off), (n[d] + off, off)]
                } else {
                    [(-(off + 1), 0), (n[d] + off, n[d] - 1)]
                };
                for (dst, src) in pairs {
                    for a in -g..n[(d + 1) % 3] + g {
                        for b in -g..n[(d + 2) % 3] + g {
                            let (mut s, mut t) = ([0isize; 3], [0isize; 3]);
                            (s[d], t[d]) = (src, dst);
                            (s[(d + 1) % 3], t[(d + 1) % 3]) = (a, a);
                            (s[(d + 2) % 3], t[(d + 2) % 3]) = (b, b);
                            let v = f.get(comp, s[0], s[1], s[2]);
                            f.set(comp, t[0], t[1], t[2], v);
                        }
                    }
                }
            }
        }
    }

    /// Every allocated element (ghosts and padding included) distinct.
    fn numbered(shape: [usize; 3], comps: usize, ghost: usize, layout: Layout) -> FieldArray {
        let mut f = FieldArray::new("t", shape, comps, ghost, layout);
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v = i as f64 + 0.5;
        }
        f
    }

    proptest::proptest! {
        #[test]
        fn box_walk_matches_the_per_element_reference(
            shape in (2usize..6, 2usize..6, 2usize..5),
            comps in 1usize..4,
            ghost in 0usize..3,
            zyxf in proptest::any::<bool>(),
        ) {
            let layout = if zyxf { Layout::Zyxf } else { Layout::Fzyx };
            let f = numbered([shape.0, shape.1, shape.2], comps, ghost, layout);

            // read_box(interior) is the component-major / z / y / x nest.
            let mut nest = Vec::new();
            for c in 0..comps {
                for z in 0..shape.2 as isize {
                    for y in 0..shape.1 as isize {
                        for x in 0..shape.0 as isize {
                            nest.push(f.get(c, x, y, z));
                        }
                    }
                }
            }
            let mut got = Vec::new();
            f.read_box(f.interior(), &mut got);
            assert_eq!(got, nest);

            for d in 0..3 {
                for side in [-1, 1] {
                    for slab in [Slab::Own, Slab::Ghost] {
                        // write_box(b, read_box(b)) is the identity, and
                        // writes exactly the cells read_box reads.
                        let b = f.face(d, side, slab);
                        let mut vals = Vec::new();
                        f.read_box(b, &mut vals);
                        assert_eq!(vals.len(), b.cells() * comps);
                        let mut w = f.clone();
                        w.write_box(b, &vals);
                        assert_eq!(w.data(), f.data());
                        w.write_box(b, &vec![-1.0; vals.len()]);
                        let changed = w.data().iter().zip(f.data()).filter(|(a, b)| a != b);
                        assert_eq!(changed.count(), vals.len());
                    }
                }
                for periodic in [true, false] {
                    let (mut want, mut got) = (f.clone(), f.clone());
                    reference_fill(&mut want, d, periodic);
                    if periodic {
                        got.apply_periodic(d);
                    } else {
                        got.apply_neumann(d);
                    }
                    assert_eq!(got.data(), want.data(), "dim {d} periodic {periodic}");
                }
            }
        }
    }

    #[test]
    fn two_d_fields_use_unit_z() {
        let f = FieldArray::new("t", [8, 8, 1], 1, 1, Layout::Fzyx);
        assert_eq!(f.shape()[2], 1);
        // z may still be addressed in its ghost range.
        let _ = f.get(0, 0, 0, -1);
    }
}
