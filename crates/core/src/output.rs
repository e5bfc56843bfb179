//! Simulation output writers: CSV time series of the structure and legacy
//! VTK snapshots of fluid slices and the sheet, which is how the examples
//! reproduce the visualisations of Figures 1 and 7.

use std::io::{self, Write};
use std::path::Path;

use crate::state::SimState;

/// Failures of the output writers. I/O problems and caller mistakes (like
/// asking for a slice outside the grid) are values, not panics, so a failed
/// snapshot cannot take down a long simulation run.
#[derive(Debug)]
pub enum OutputError {
    /// The underlying writer failed.
    Io(io::Error),
    /// The requested x-normal slice lies outside the fluid grid.
    SliceOutOfRange {
        /// Requested slice index.
        x: usize,
        /// Grid extent along x; valid slices are `0..nx`.
        nx: usize,
    },
}

impl std::fmt::Display for OutputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "output write failed: {e}"),
            Self::SliceOutOfRange { x, nx } => {
                write!(f, "slice x={x} out of range (grid has nx={nx})")
            }
        }
    }
}

impl std::error::Error for OutputError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::SliceOutOfRange { .. } => None,
        }
    }
}

impl From<io::Error> for OutputError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes the sheet node positions as CSV (`fiber,node,x,y,z`).
pub fn write_sheet_csv<W: Write>(state: &SimState, mut w: W) -> io::Result<()> {
    writeln!(w, "fiber,node,x,y,z")?;
    let nn = state.sheet.nodes_per_fiber;
    for fiber in 0..state.sheet.num_fibers {
        for node in 0..nn {
            let p = state.sheet.pos[fiber * nn + node];
            writeln!(w, "{fiber},{node},{:.9},{:.9},{:.9}", p[0], p[1], p[2])?;
        }
    }
    Ok(())
}

/// Appends one row per call to a trajectory CSV
/// (`step,cx,cy,cz,ex,ey,ez`): the sheet centroid and extents over time.
pub fn append_trajectory_row<W: Write>(state: &SimState, mut w: W) -> io::Result<()> {
    let c = state.sheet.centroid();
    let (lo, hi) = state.sheet.bounding_box();
    writeln!(
        w,
        "{},{:.9},{:.9},{:.9},{:.9},{:.9},{:.9}",
        state.step,
        c[0],
        c[1],
        c[2],
        hi[0] - lo[0],
        hi[1] - lo[1],
        hi[2] - lo[2]
    )
}

/// Header for the trajectory CSV.
pub fn trajectory_header<W: Write>(mut w: W) -> io::Result<()> {
    writeln!(w, "step,cx,cy,cz,ex,ey,ez")
}

/// Writes the sheet as a legacy-VTK structured grid of points with a quad
/// connectivity (viewable in ParaView).
pub fn write_sheet_vtk<W: Write>(state: &SimState, mut w: W) -> io::Result<()> {
    let sheet = &state.sheet;
    let nf = sheet.num_fibers;
    let nn = sheet.nodes_per_fiber;
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "LBM-IB fiber sheet, step {}", state.step)?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET STRUCTURED_GRID")?;
    writeln!(w, "DIMENSIONS {nn} {nf} 1")?;
    writeln!(w, "POINTS {} double", nf * nn)?;
    for fiber in 0..nf {
        for node in 0..nn {
            let p = sheet.pos[fiber * nn + node];
            writeln!(w, "{:.9} {:.9} {:.9}", p[0], p[1], p[2])?;
        }
    }
    writeln!(w, "POINT_DATA {}", nf * nn)?;
    writeln!(w, "VECTORS elastic_force double")?;
    for f in &sheet.elastic {
        writeln!(w, "{:.9} {:.9} {:.9}", f[0], f[1], f[2])?;
    }
    Ok(())
}

/// Writes one x-normal slice of the fluid velocity as CSV
/// (`y,z,ux,uy,uz,rho`). An out-of-range `x` is reported as
/// [`OutputError::SliceOutOfRange`] rather than a panic.
pub fn write_fluid_slice_csv<W: Write>(
    state: &SimState,
    x: usize,
    mut w: W,
) -> Result<(), OutputError> {
    let dims = state.fluid.dims;
    if x >= dims.nx {
        return Err(OutputError::SliceOutOfRange { x, nx: dims.nx });
    }
    writeln!(w, "y,z,ux,uy,uz,rho")?;
    for y in 0..dims.ny {
        for z in 0..dims.nz {
            let n = dims.idx(x, y, z);
            let [ux, uy, uz] = state.fluid.u[n];
            let rho = state.fluid.rho[n];
            writeln!(w, "{y},{z},{ux:.9e},{uy:.9e},{uz:.9e},{rho:.9}")?;
        }
    }
    Ok(())
}

/// Convenience: writes a sheet VTK snapshot to a numbered file in `dir`.
pub fn dump_sheet_snapshot(
    state: &SimState,
    dir: &Path,
    index: usize,
) -> io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("sheet_{index:05}.vtk"));
    let file = std::fs::File::create(&path)?;
    write_sheet_vtk(state, io::BufWriter::new(file))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;

    fn state() -> SimState {
        SimState::new(SimulationConfig::quick_test())
    }

    #[test]
    fn sheet_csv_has_all_rows() {
        let s = state();
        let mut buf = Vec::new();
        write_sheet_csv(&s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + s.sheet.n());
        assert!(text.starts_with("fiber,node,x,y,z"));
    }

    #[test]
    fn trajectory_rows_accumulate() {
        let s = state();
        let mut buf = Vec::new();
        trajectory_header(&mut buf).unwrap();
        append_trajectory_row(&s, &mut buf).unwrap();
        append_trajectory_row(&s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().starts_with("0,"));
    }

    #[test]
    fn vtk_structure_is_wellformed() {
        let s = state();
        let mut buf = Vec::new();
        write_sheet_vtk(&s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("DATASET STRUCTURED_GRID"));
        assert!(text.contains(&format!("POINTS {} double", s.sheet.n())));
        assert!(text.contains("VECTORS elastic_force double"));
        // Header + points + point data sections all present.
        let point_lines = text
            .lines()
            .skip_while(|l| !l.starts_with("POINTS"))
            .skip(1)
            .take_while(|l| !l.starts_with("POINT_DATA"))
            .count();
        assert_eq!(point_lines, s.sheet.n());
    }

    #[test]
    fn fluid_slice_covers_plane() {
        let s = state();
        let mut buf = Vec::new();
        write_fluid_slice_csv(&s, 2, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + s.fluid.dims.ny * s.fluid.dims.nz);
    }

    #[test]
    fn slice_out_of_range_is_a_typed_error() {
        let s = state();
        let mut buf = Vec::new();
        let err = write_fluid_slice_csv(&s, 999, &mut buf).unwrap_err();
        match &err {
            OutputError::SliceOutOfRange { x: 999, nx } => assert_eq!(*nx, s.fluid.dims.nx),
            other => panic!("expected SliceOutOfRange, got {other:?}"),
        }
        assert!(buf.is_empty(), "nothing is written on a rejected slice");
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn snapshot_file_written() {
        let s = state();
        let dir = std::env::temp_dir().join("lbmib_test_snapshots");
        let path = dump_sheet_snapshot(&s, &dir, 3).unwrap();
        assert!(path.to_string_lossy().ends_with("sheet_00003.vtk"));
        assert!(path.exists());
        std::fs::remove_file(path).ok();
    }
}
