//! Simulation output (the waLBerla post-processing/I/O role, §4.1).
//!
//! Production phase-field runs write fields for visualization; this module
//! provides a legacy-VTK structured-points writer (loadable by ParaView)
//! and a compact ASCII slice dump for quick inspection, both over the
//! interior of a block.

use crate::sim::Simulation;
use pf_fields::FieldArray;
use std::fmt::Write as _;

/// Render one field (all components) as a legacy VTK `STRUCTURED_POINTS`
/// dataset string. `spacing` is the grid spacing.
pub fn to_vtk(name: &str, arr: &FieldArray, spacing: f64) -> String {
    let s = arr.shape();
    let mut out = String::new();
    let _ = writeln!(out, "# vtk DataFile Version 3.0");
    let _ = writeln!(out, "{name} (pf-suite)");
    let _ = writeln!(out, "ASCII");
    let _ = writeln!(out, "DATASET STRUCTURED_POINTS");
    let _ = writeln!(out, "DIMENSIONS {} {} {}", s[0], s[1], s[2]);
    let _ = writeln!(out, "ORIGIN 0 0 0");
    let _ = writeln!(out, "SPACING {spacing} {spacing} {spacing}");
    let _ = writeln!(out, "POINT_DATA {}", s[0] * s[1] * s[2]);
    for (comp, block) in arr.read_interior().chunks(s[0] * s[1] * s[2]).enumerate() {
        let _ = writeln!(out, "SCALARS {name}_{comp} double 1");
        let _ = writeln!(out, "LOOKUP_TABLE default");
        for v in block {
            let _ = writeln!(out, "{v}");
        }
    }
    out
}

/// Write the simulation's φ and µ fields as VTK files under `dir`,
/// suffixed with the current step count.
pub fn write_vtk(
    sim: &Simulation,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let step = sim.step_count;
    let mut written = Vec::new();
    for (name, arr) in [("phi", sim.phi()), ("mu", sim.mu())] {
        let path = dir.join(format!("{name}_{step:08}.vtk"));
        std::fs::write(&path, to_vtk(name, arr, sim.params.dx))?;
        written.push(path);
    }
    Ok(written)
}

/// ASCII art of one component's z-slice: `#` solid (>0.75), `+` interface,
/// `.` low. Handy in examples and terminal debugging.
pub fn ascii_slice(arr: &FieldArray, comp: usize, z: usize) -> String {
    let s = arr.shape();
    let mut out = String::with_capacity((s[0] + 1) * s[1]);
    for y in (0..s[1] as isize).rev() {
        for x in 0..s[0] as isize {
            let v = arr.get(comp, x, y, z as isize);
            out.push(if v > 0.75 {
                '#'
            } else if v > 0.25 {
                '+'
            } else {
                '.'
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_fields::Layout;

    fn sample() -> FieldArray {
        let mut a = FieldArray::new("io_f", [3, 2, 2], 2, 1, Layout::Fzyx);
        a.fill_with(0, |x, y, z| (x + 10 * y + 100 * z) as f64);
        a.fill_with(1, |_, _, _| 0.5);
        a
    }

    #[test]
    fn vtk_header_and_counts() {
        let v = to_vtk("phi", &sample(), 0.5);
        assert!(v.starts_with("# vtk DataFile Version 3.0"));
        assert!(v.contains("DIMENSIONS 3 2 2"));
        assert!(v.contains("POINT_DATA 12"));
        assert!(v.contains("SCALARS phi_0 double 1"));
        assert!(v.contains("SCALARS phi_1 double 1"));
        // 12 values per component + headers.
        let data_lines = v.lines().filter(|l| l.parse::<f64>().is_ok()).count();
        assert_eq!(data_lines, 24);
    }

    #[test]
    fn vtk_is_x_fastest_ordering() {
        let v = to_vtk("f", &sample(), 1.0);
        let nums: Vec<f64> = v.lines().filter_map(|l| l.parse::<f64>().ok()).collect();
        // First row of component 0: x = 0,1,2 at y=z=0.
        assert_eq!(&nums[0..3], &[0.0, 1.0, 2.0]);
        // Next row: y = 1.
        assert_eq!(nums[3], 10.0);
    }

    #[test]
    fn ascii_slice_classifies_levels() {
        let mut a = FieldArray::new("io_a", [3, 1, 1], 1, 1, Layout::Fzyx);
        a.set(0, 0, 0, 0, 0.9);
        a.set(0, 1, 0, 0, 0.5);
        a.set(0, 2, 0, 0, 0.1);
        assert_eq!(ascii_slice(&a, 0, 0), "#+.\n");
    }
}
