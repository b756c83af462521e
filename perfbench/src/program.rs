//! The compiled program serve-open sends as bulk traffic: a 2-pair packed
//! inner product, `0.5 · Σ_{j<8} (x0·y0 + x1·y1)[j]`, reduced into slot 0
//! by three rotate-adds.

use wd_ckks::CkksParams;
use wd_graph::{CompileOptions, CompiledProgram, Graph};

use crate::common::{plain, Res};

/// Rotation steps the program's reduction uses.
pub const ROT_STEPS: [isize; 3] = [1, 2, 4];

/// Program inputs: `x0, y0, x1, y1`.
pub const INPUTS: usize = 4;

fn graph() -> Graph {
    let mut g = Graph::new();
    let (x0, y0, x1, y1) = (g.input(), g.input(), g.input(), g.input());
    let m0 = g.mul(x0, y0);
    let m1 = g.mul(x1, y1);
    let mut t = g.add(m0, m1);
    for &k in &ROT_STEPS {
        let r = g.rotate(t, k);
        t = g.add(t, r);
    }
    let out = g.mul_const(t, 0.5);
    g.output(out);
    g
}

/// Compiles the program for `params`, with the rotation steps declared.
pub fn compile(params: &CkksParams) -> Res<CompiledProgram> {
    Ok(graph().compile(
        params,
        &CompileOptions::new().with_rotation_steps(&ROT_STEPS),
    )?)
}

/// The slot vector the program computes on plain inputs.
pub fn expected(x0: &[f64], y0: &[f64], x1: &[f64], y1: &[f64]) -> Vec<f64> {
    let mut t = plain::add(&plain::mul(x0, y0), &plain::mul(x1, y1));
    for &k in &ROT_STEPS {
        t = plain::add(&t, &plain::rot(&t, k as usize));
    }
    plain::scale(&t, 0.5)
}
