//! Lane-batched execution of one [`Tape`] graph over N parameter sets.
//!
//! PBQU bounds training (`gcln-engine`'s `bounds` module) trains one
//! model per initial direction, and those tapes share one topology — only
//! parameter values differ. [`LaneKernel`] compiles that shared topology
//! **once** and evaluates all `lanes` parameter sets per pass over a
//! structure-of-arrays arena laid out `[node][lane][sample]`:
//!
//! ```text
//! node i (batch len B, 4 lanes):
//!   offset[i] ──► │ lane0: B samples │ lane1: B samples │ lane2 │ lane3 │
//! node k (scalar):
//!   offset[k] ──► │ l0 │ l1 │ l2 │ l3 │
//! ```
//!
//! Each lane's sub-slot is processed with *exactly* the scalar arena's
//! per-element code ([`crate::tape`]'s own helpers: `zip_into`,
//! `accum_into`, [`crate::fastmath::exp64`],
//! [`crate::fastmath::reduce_blocked4`]), so lane `ℓ`'s forward value and
//! parameter gradients are **bit-identical** to running the scalar
//! [`Tape`] with lane `ℓ`'s parameters — for any lane count and any lane
//! position. What batching buys is everything *around* the arithmetic:
//! one liveness/layout pre-pass, one input binding (columns and
//! constants are stored **once** and read by every lane — never
//! replicated or re-copied), one touched-flag sweep per backward, and
//! zero allocation per epoch.
//!
//! # Examples
//!
//! Evaluate `mean((w·x)²)` for three parameter sets in one pass:
//!
//! ```
//! use gcln_tensor::{tape::Tape, lanes::LaneKernel};
//! let mut t = Tape::new();
//! let x = t.input(0);
//! let w = t.param(0);
//! let wx = t.mul(w, x);
//! let sq = t.square(wx);
//! let loss = t.mean_batch(sq);
//! let mut k = LaneKernel::compile(&t, loss, 3);
//! k.bind_inputs(&[vec![1.0, 2.0, 3.0]]);
//! let params = [0.5, 1.0, 2.0]; // one param per lane
//! let losses = k.forward(&params).to_vec();
//! let mut grads = vec![0.0; 3];
//! k.backward(&mut grads);
//! // lane 1 (w=1.0): loss = mean(x²) = 14/3
//! assert!((losses[1] - 14.0 / 3.0).abs() < 1e-12);
//! ```

use crate::fastmath::{
    exp64, fma64, reduce_blocked4, reduce_fma_blocked4, reduce_fma_blocked4_x4, sum_blocked,
};
use crate::tape::{accum_into, bget, map_into, zip_into, Op, Tape, Var};

/// A compiled lane-batched execution plan for one tape topology.
///
/// See the [module documentation](self) for the layout and the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct LaneKernel {
    ops: Vec<Op>,
    scalar: Vec<bool>,
    requires_grad: Vec<bool>,
    live: Vec<bool>,
    /// Per-node: lane-invariant (inputs and constants). Shared nodes are
    /// stored **once**, not per lane — every lane reads the same slot, so
    /// input columns cost `B` doubles instead of `lanes × B` and stay hot
    /// in cache across lanes.
    shared: Vec<bool>,
    /// Per-node offset into the arenas (slot size `lanes × lens[i]`, or
    /// just `lens[i]` for shared nodes).
    offsets: Vec<usize>,
    /// Per-node *per-lane* length (1 or `batch`), matching the scalar
    /// arena's slot length exactly.
    lens: Vec<usize>,
    values: Vec<f64>,
    grads: Vec<f64>,
    touched: Vec<bool>,
    output: usize,
    lanes: usize,
    num_inputs: usize,
    num_params: usize,
    /// Batch size bound by [`LaneKernel::bind_inputs`] (`usize::MAX` =
    /// unbound).
    batch: usize,
}

impl LaneKernel {
    /// Compiles the DAG rooted at `output` into a kernel evaluating
    /// `lanes` parameter sets per pass.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, `output` is not a node of `tape`, or
    /// `output` is not a scalar node (reduce the batch first).
    pub fn compile(tape: &Tape, output: Var, lanes: usize) -> LaneKernel {
        assert!(lanes > 0, "need at least one lane");
        let ops_all = tape.ops_slice();
        assert!(output.index() < ops_all.len(), "output var from another tape");
        let scalar = tape.scalar_flags();
        assert!(scalar[output.index()], "output must be a scalar node; reduce the batch first");
        let n = output.index() + 1;
        let ops: Vec<Op> = ops_all[..n].to_vec();
        let mut live = vec![false; n];
        live[output.index()] = true;
        for i in (0..n).rev() {
            if live[i] {
                visit_operands(&ops[i], |v| live[v.index()] = true);
            }
        }
        let shared: Vec<bool> =
            ops.iter().map(|op| matches!(op, Op::Input(_) | Op::Const(_))).collect();
        LaneKernel {
            scalar: scalar[..n].to_vec(),
            requires_grad: tape.requires_grad_flags()[..n].to_vec(),
            shared,
            lens: Vec::new(),
            ops,
            live,
            offsets: Vec::new(),
            values: Vec::new(),
            grads: Vec::new(),
            touched: vec![false; n],
            output: output.index(),
            lanes,
            num_inputs: tape.num_inputs(),
            num_params: tape.num_params(),
            batch: usize::MAX,
        }
    }

    /// Lays out the arenas for these input columns and copies each column
    /// into its (lane-invariant) slot once, so subsequent forwards touch
    /// no input data at all and all lanes read the same cached copy.
    ///
    /// Must be called before the first [`LaneKernel::forward`] and
    /// again whenever the input columns change.
    ///
    /// # Panics
    ///
    /// Panics if columns are missing or ragged.
    pub fn bind_inputs(&mut self, inputs: &[Vec<f64>]) {
        assert!(inputs.len() >= self.num_inputs, "missing input columns");
        let batch = inputs.first().map_or(1, Vec::len);
        assert!(inputs.iter().all(|c| c.len() == batch), "ragged input columns");
        self.offsets.clear();
        self.offsets.reserve(self.ops.len());
        self.lens.clear();
        self.lens.reserve(self.ops.len());
        let mut total = 0usize;
        for (i, &scalar) in self.scalar.iter().enumerate() {
            let len = if scalar { 1 } else { batch };
            self.offsets.push(total);
            self.lens.push(len);
            total += if self.shared[i] { len } else { len * self.lanes };
        }
        self.values.clear();
        self.values.resize(total, 0.0);
        self.grads.clear();
        self.grads.resize(total, 0.0);
        for (i, op) in self.ops.iter().enumerate() {
            let off = self.offsets[i];
            match op {
                Op::Input(idx) => {
                    self.values[off..off + batch].copy_from_slice(&inputs[*idx]);
                }
                Op::Const(c) => self.values[off] = *c,
                _ => {}
            }
        }
        self.batch = batch;
    }

    /// Runs one forward pass over every lane, returning their output
    /// values (one scalar per lane).
    ///
    /// `params` is `[lane][param]`-flat: lane `ℓ` reads
    /// `params[ℓ·num_params..][..num_params]`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are unbound or `params` is shorter than
    /// `lanes × num_params`.
    pub fn forward(&mut self, params: &[f64]) -> &[f64] {
        assert!(self.batch != usize::MAX, "call bind_inputs before forward");
        let lanes = self.lanes;
        assert!(params.len() >= lanes * self.num_params, "missing parameters");
        let np = self.num_params;
        let ops = &self.ops;
        let offsets = &self.offsets;
        let lens = &self.lens;
        let live = &self.live;
        for i in 0..=self.output {
            if !live[i] {
                continue;
            }
            let off = offsets[i];
            let len = lens[i];
            let (prev, rest) = self.values.split_at_mut(off);
            let out_all = &mut rest[..lanes * len];
            // Lane ℓ's view of an operand slot — per-lane length, so the
            // per-element code below is the scalar arena's verbatim.
            // Shared (input/const) slots hold one copy read by all lanes.
            let shared = &self.shared;
            let vlane = |v: &Var, l: usize| -> &[f64] {
                let (o, ln) = (offsets[v.index()], lens[v.index()]);
                if shared[v.index()] {
                    &prev[o..o + ln]
                } else {
                    &prev[o + l * ln..o + (l + 1) * ln]
                }
            };
            match &ops[i] {
                Op::Input(_) | Op::Const(_) => {} // filled by bind_inputs
                Op::Param(idx) => {
                    for (l, o) in out_all.iter_mut().enumerate() {
                        *o = params[l * np + idx];
                    }
                }
                Op::Add(a, b) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        zip_into(o, vlane(a, l), vlane(b, l), |x, y| x + y);
                    }
                }
                Op::Sub(a, b) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        zip_into(o, vlane(a, l), vlane(b, l), |x, y| x - y);
                    }
                }
                Op::Mul(a, b) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        zip_into(o, vlane(a, l), vlane(b, l), |x, y| x * y);
                    }
                }
                Op::Div(a, b) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        zip_into(o, vlane(a, l), vlane(b, l), |x, y| x / y);
                    }
                }
                Op::Neg(a) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        map_into(o, vlane(a, l), |x| -x);
                    }
                }
                Op::Exp(a) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        map_into(o, vlane(a, l), exp64);
                    }
                }
                Op::Square(a) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        map_into(o, vlane(a, l), |x| x * x);
                    }
                }
                Op::Recip(a) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        map_into(o, vlane(a, l), |x| 1.0 / x);
                    }
                }
                Op::SelectNonneg { cond, nonneg, neg } => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        let (c, p, n) = (vlane(cond, l), vlane(nonneg, l), vlane(neg, l));
                        for (j, o) in o.iter_mut().enumerate() {
                            *o = if bget(c, j) >= 0.0 { bget(p, j) } else { bget(n, j) };
                        }
                    }
                }
                Op::Clamp01(a) => {
                    for (l, o) in out_all.chunks_exact_mut(len).enumerate() {
                        map_into(o, vlane(a, l), |x| x.clamp(0.0, 1.0));
                    }
                }
                Op::SumBatch(a) => {
                    for (l, o) in out_all.iter_mut().enumerate() {
                        *o = sum_blocked(vlane(a, l));
                    }
                }
                Op::MeanBatch(a) => {
                    for (l, o) in out_all.iter_mut().enumerate() {
                        let v = vlane(a, l);
                        *o = sum_blocked(v) / v.len() as f64;
                    }
                }
                Op::Affine { weights, xs, bias } => {
                    for (l, out) in out_all.chunks_exact_mut(len).enumerate() {
                        match bias {
                            Some(b) => {
                                let bv = vlane(b, l);
                                for (j, o) in out.iter_mut().enumerate() {
                                    *o = bget(bv, j);
                                }
                            }
                            None => out.fill(0.0),
                        }
                        for (w, x) in weights.iter().zip(xs.iter()) {
                            let wv = vlane(w, l);
                            let xv = vlane(x, l);
                            if wv.len() == 1 && xv.len() == out.len() {
                                let w0 = wv[0];
                                for (o, &x) in out.iter_mut().zip(xv) {
                                    *o = fma64(w0, x, *o);
                                }
                            } else {
                                for (j, o) in out.iter_mut().enumerate() {
                                    *o = fma64(bget(wv, j), bget(xv, j), *o);
                                }
                            }
                        }
                    }
                }
                Op::Gaussian { z, coeff } => {
                    for (l, out) in out_all.chunks_exact_mut(len).enumerate() {
                        let zv = vlane(z, l);
                        let cv = vlane(coeff, l);
                        if cv.len() == 1 {
                            let c0 = cv[0];
                            for (o, &z) in out.iter_mut().zip(zv) {
                                *o = exp64(z * z * c0);
                            }
                        } else {
                            for (j, o) in out.iter_mut().enumerate() {
                                let z = bget(zv, j);
                                *o = exp64(z * z * bget(cv, j));
                            }
                        }
                    }
                }
                Op::PbquLoss { z, c1sq, c2sq } => {
                    let (c1sq, c2sq) = (*c1sq, *c2sq);
                    for (l, o) in out_all.iter_mut().enumerate() {
                        let zv = vlane(z, l);
                        let sum = reduce_blocked4(zv.len(), |j| {
                            let zj = zv[j];
                            let z2 = zj * zj;
                            let act = if zj >= 0.0 {
                                c2sq / (z2 + c2sq)
                            } else {
                                c1sq / (z2 + c1sq)
                            };
                            1.0 - act
                        });
                        *o = sum / zv.len() as f64;
                    }
                }
                Op::LitFactor { gate, act } => {
                    for (l, out) in out_all.chunks_exact_mut(len).enumerate() {
                        let (gv, av) = (vlane(gate, l), vlane(act, l));
                        if gv.len() == 1 {
                            let g0 = gv[0];
                            for (o, &a) in out.iter_mut().zip(av) {
                                *o = 1.0 - g0 * a;
                            }
                        } else {
                            for (j, o) in out.iter_mut().enumerate() {
                                *o = 1.0 - bget(gv, j) * bget(av, j);
                            }
                        }
                    }
                }
                Op::ClauseFactor { prod, gate } => {
                    for (l, out) in out_all.chunks_exact_mut(len).enumerate() {
                        let (pv, gv) = (vlane(prod, l), vlane(gate, l));
                        // Stepwise, matching the unfused chain bit-for-bit:
                        // or = 1 − p; om1 = or − 1; out = 1 + g·om1.
                        if gv.len() == 1 {
                            let g0 = gv[0];
                            for (o, &p) in out.iter_mut().zip(pv) {
                                let om1 = (1.0 - p) - 1.0;
                                *o = 1.0 + g0 * om1;
                            }
                        } else {
                            for (j, o) in out.iter_mut().enumerate() {
                                let om1 = (1.0 - bget(pv, j)) - 1.0;
                                *o = 1.0 + bget(gv, j) * om1;
                            }
                        }
                    }
                }
            }
        }
        let off = self.offsets[self.output];
        &self.values[off..off + lanes]
    }

    /// Runs one backward pass over every lane of the last forward,
    /// writing lane `ℓ`'s parameter gradients into
    /// `param_grads[ℓ·num_params..][..num_params]` (overwritten, not
    /// accumulated). Zero heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is shorter than `lanes × num_params`.
    pub fn backward(&mut self, param_grads: &mut [f64]) {
        let lanes = self.lanes;
        let np = self.num_params;
        assert!(param_grads.len() >= lanes * np, "gradient buffer too short");
        for lane_grads in param_grads.chunks_mut(np.max(1)).take(lanes) {
            lane_grads[..np].fill(0.0);
        }
        if !self.requires_grad[self.output] {
            return;
        }
        self.touched.fill(false);
        let ooff = self.offsets[self.output];
        self.grads[ooff..ooff + lanes].fill(1.0);
        self.touched[self.output] = true;

        let ops = &self.ops;
        let offsets = &self.offsets;
        let lens = &self.lens;
        let values = &self.values;
        let requires = &self.requires_grad;
        let shared = &self.shared;
        let vlan = |v: &Var, l: usize| -> &[f64] {
            let (o, ln) = (offsets[v.index()], lens[v.index()]);
            if shared[v.index()] {
                &values[o..o + ln]
            } else {
                &values[o + l * ln..o + (l + 1) * ln]
            }
        };
        for i in (0..=self.output).rev() {
            if !self.touched[i] {
                continue;
            }
            let off = offsets[i];
            let len = lens[i];
            let (gprev, gcur) = self.grads.split_at_mut(off);
            let gcur = &gcur[..lanes * len];
            let touched = &mut self.touched;
            // Per-target adjoint accumulation: `$mk` receives the lane
            // index and builds the per-element closure, so value-slot
            // slicing is hoisted out of the inner loop. Each lane's
            // `accum_into` call is the scalar backward's, verbatim.
            macro_rules! acc {
                ($target:expr, |$l:pat_param| $mk:expr) => {{
                    let t: &Var = $target;
                    let ti = t.index();
                    if requires[ti] {
                        let fresh = !touched[ti];
                        for l in 0..lanes {
                            let up = &gcur[l * len..(l + 1) * len];
                            let $l = l;
                            accum_into(
                                gprev,
                                offsets[ti] + l * lens[ti],
                                lens[ti],
                                up,
                                fresh,
                                $mk,
                            );
                        }
                        touched[ti] = true;
                    }
                }};
            }
            match &ops[i] {
                Op::Input(_) | Op::Const(_) => {}
                Op::Param(idx) => {
                    for l in 0..lanes {
                        param_grads[l * np + idx] += gcur[l];
                    }
                }
                Op::Add(a, b) => {
                    acc!(a, |_l| |_j, g: f64| g);
                    acc!(b, |_l| |_j, g: f64| g);
                }
                Op::Sub(a, b) => {
                    acc!(a, |_l| |_j, g: f64| g);
                    acc!(b, |_l| |_j, g: f64| -g);
                }
                Op::Mul(a, b) => {
                    acc!(a, |l| {
                        let bv = vlan(b, l);
                        move |j, g| g * bget(bv, j)
                    });
                    acc!(b, |l| {
                        let av = vlan(a, l);
                        move |j, g| g * bget(av, j)
                    });
                }
                Op::Div(a, b) => {
                    acc!(a, |l| {
                        let bv = vlan(b, l);
                        move |j, g| g / bget(bv, j)
                    });
                    acc!(b, |l| {
                        let (av, bv) = (vlan(a, l), vlan(b, l));
                        move |j, g| {
                            let bj = bget(bv, j);
                            -g * bget(av, j) / (bj * bj)
                        }
                    });
                }
                Op::Neg(a) => acc!(a, |_l| |_j, g: f64| -g),
                Op::Exp(a) => {
                    acc!(a, |l| {
                        let out = &values[off + l * len..off + (l + 1) * len];
                        move |j, g| g * out[j]
                    });
                }
                Op::Square(a) => {
                    acc!(a, |l| {
                        let av = vlan(a, l);
                        move |j, g| 2.0 * g * av[j]
                    });
                }
                Op::Recip(a) => {
                    acc!(a, |l| {
                        let av = vlan(a, l);
                        move |j, g| {
                            let x = av[j];
                            -g / (x * x)
                        }
                    });
                }
                Op::SelectNonneg { cond, nonneg, neg } => {
                    acc!(nonneg, |l| {
                        let cv = vlan(cond, l);
                        move |j, g| if bget(cv, j) >= 0.0 { g } else { 0.0 }
                    });
                    acc!(neg, |l| {
                        let cv = vlan(cond, l);
                        move |j, g| if bget(cv, j) >= 0.0 { 0.0 } else { g }
                    });
                }
                Op::Clamp01(a) => {
                    acc!(a, |l| {
                        let av = vlan(a, l);
                        move |j, g| if (0.0..=1.0).contains(&av[j]) { g } else { 0.0 }
                    });
                }
                Op::SumBatch(a) => {
                    acc!(a, |_l| |_j, g: f64| g);
                }
                Op::MeanBatch(a) => {
                    let n = lens[a.index()] as f64;
                    acc!(a, |_l| move |_j, g: f64| g / n);
                }
                Op::Affine { weights, xs, bias } => {
                    // Mirrors the scalar arena's hot path: scalar-weight
                    // adjoints reduce in the canonical FMA order, four
                    // weights per pass over each lane's upstream adjoint
                    // where possible — per-weight sums bit-identical to
                    // standalone reductions.
                    let hot = |w: &Var, x: &Var| {
                        requires[w.index()]
                            && lens[w.index()] == 1
                            && len > 1
                            && lens[x.index()] == len
                    };
                    macro_rules! put_w {
                        ($w:expr, $l:expr, $sum:expr) => {{
                            let w: &Var = $w;
                            let fresh = !touched[w.index()];
                            let dst = &mut gprev[offsets[w.index()] + $l];
                            if fresh {
                                *dst = $sum;
                            } else {
                                *dst += $sum;
                            }
                        }};
                    }
                    let mut p = 0;
                    while p < weights.len() {
                        let (w, x) = (&weights[p], &xs[p]);
                        if !hot(w, x) {
                            acc!(w, |l| {
                                let xv = vlan(x, l);
                                move |j, g| g * bget(xv, j)
                            });
                            acc!(x, |l| {
                                let wv = vlan(w, l);
                                move |j, g| g * bget(wv, j)
                            });
                            p += 1;
                            continue;
                        }
                        let mut q = p + 1;
                        while q < weights.len() && q - p < 4 && hot(&weights[q], &xs[q]) {
                            q += 1;
                        }
                        if q - p == 4 {
                            // Per-k freshness as the scalar arena would see
                            // it (hot weights are scalar nodes and hot xs
                            // are batch nodes, so only duplicate *weights*
                            // can alias within the group).
                            let mut fresh_k = [false; 4];
                            for k in 0..4 {
                                let wi = weights[p + k].index();
                                fresh_k[k] = !touched[wi]
                                    && !(0..k).any(|k2| weights[p + k2].index() == wi);
                            }
                            for l in 0..lanes {
                                let up = &gcur[l * len..(l + 1) * len];
                                let sums = reduce_fma_blocked4_x4(
                                    len,
                                    up,
                                    [
                                        vlan(&xs[p], l),
                                        vlan(&xs[p + 1], l),
                                        vlan(&xs[p + 2], l),
                                        vlan(&xs[p + 3], l),
                                    ],
                                );
                                for (k, &sum) in sums.iter().enumerate() {
                                    let wi = weights[p + k].index();
                                    let dst = &mut gprev[offsets[wi] + l];
                                    if fresh_k[k] {
                                        *dst = sum;
                                    } else {
                                        *dst += sum;
                                    }
                                }
                            }
                            for k in p..q {
                                touched[weights[k].index()] = true;
                                let (w, x) = (&weights[k], &xs[k]);
                                acc!(x, |l| {
                                    let wv = vlan(w, l);
                                    move |j, g| g * bget(wv, j)
                                });
                            }
                        } else {
                            for k in p..q {
                                let (w, x) = (&weights[k], &xs[k]);
                                for l in 0..lanes {
                                    let up = &gcur[l * len..(l + 1) * len];
                                    let xv = vlan(x, l);
                                    let sum = reduce_fma_blocked4(len, |j| (up[j], xv[j]));
                                    put_w!(w, l, sum);
                                }
                                touched[w.index()] = true;
                                acc!(x, |l| {
                                    let wv = vlan(w, l);
                                    move |j, g| g * bget(wv, j)
                                });
                            }
                        }
                        p = q;
                    }
                    if let Some(b) = bias {
                        acc!(b, |_l| |_j, g: f64| g);
                    }
                }
                Op::Gaussian { z, coeff } => {
                    acc!(z, |l| {
                        let (zv, cv) = (vlan(z, l), vlan(coeff, l));
                        let out = &values[off + l * len..off + (l + 1) * len];
                        move |j, g| g * out[j] * bget(cv, j) * 2.0 * bget(zv, j)
                    });
                    acc!(coeff, |l| {
                        let zv = vlan(z, l);
                        let out = &values[off + l * len..off + (l + 1) * len];
                        move |j, g| {
                            let z = bget(zv, j);
                            g * out[j] * (z * z)
                        }
                    });
                }
                Op::PbquLoss { z, c1sq, c2sq } => {
                    let n = lens[z.index()] as f64;
                    let (c1sq, c2sq) = (*c1sq, *c2sq);
                    acc!(z, |l| {
                        let zv = vlan(z, l);
                        move |j, g: f64| {
                            let zj = zv[j];
                            let z2 = zj * zj;
                            let g_act = -(g / n);
                            let k = if zj >= 0.0 { c2sq } else { c1sq };
                            let d = z2 + k;
                            let g_d = -g_act * k / (d * d);
                            2.0 * g_d * zj
                        }
                    });
                }
                Op::LitFactor { gate, act } => {
                    acc!(act, |l| {
                        let gv = vlan(gate, l);
                        move |j, g| -g * bget(gv, j)
                    });
                    acc!(gate, |l| {
                        let av = vlan(act, l);
                        move |j, g| -g * bget(av, j)
                    });
                }
                Op::ClauseFactor { prod, gate } => {
                    acc!(prod, |l| {
                        let gv = vlan(gate, l);
                        move |j, g| -(g * bget(gv, j))
                    });
                    acc!(gate, |l| {
                        let pv = vlan(prod, l);
                        move |j, g| {
                            let om1 = (1.0 - bget(pv, j)) - 1.0;
                            g * om1
                        }
                    });
                }
            }
        }
    }
}

/// Calls `f` on every operand of `op` (liveness marking).
fn visit_operands(op: &Op, mut f: impl FnMut(Var)) {
    match op {
        Op::Input(_) | Op::Param(_) | Op::Const(_) => {}
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
            f(*a);
            f(*b);
        }
        Op::Neg(a)
        | Op::Exp(a)
        | Op::Square(a)
        | Op::Recip(a)
        | Op::Clamp01(a)
        | Op::SumBatch(a)
        | Op::MeanBatch(a) => f(*a),
        Op::SelectNonneg { cond, nonneg, neg } => {
            f(*cond);
            f(*nonneg);
            f(*neg);
        }
        Op::Affine { weights, xs, bias } => {
            weights.iter().chain(xs.iter()).chain(bias.iter()).for_each(|v| f(*v));
        }
        Op::Gaussian { z, coeff } => {
            f(*z);
            f(*coeff);
        }
        Op::PbquLoss { z, .. } => f(*z),
        Op::LitFactor { gate, act } => {
            f(*gate);
            f(*act);
        }
        Op::ClauseFactor { prod, gate } => {
            f(*prod);
            f(*gate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A gcln-shaped graph: gated Gaussian literals over fused affines,
    /// with a σ parameter feeding every coefficient.
    fn gcln_like(num_terms: usize, lits: usize) -> (Tape, Var, usize) {
        let mut t = Tape::new();
        let xs: Vec<Var> = (0..num_terms).map(|i| t.input(i)).collect();
        let one = t.constant(1.0);
        let sigma = t.param(num_terms * lits + lits); // last slot
        let coeff = {
            let s2 = t.square(sigma);
            let two = t.constant(2.0);
            let t2 = t.mul(two, s2);
            let r = t.recip(t2);
            t.neg(r)
        };
        let mut prod: Option<Var> = None;
        for lit in 0..lits {
            // Params pack per literal: `num_terms` weights then the gate.
            let base = lit * (num_terms + 1);
            let ws: Vec<Var> = (0..num_terms).map(|k| t.param(base + k)).collect();
            let z = t.affine(&ws, &xs, None);
            let act = t.gaussian(z, coeff);
            let gate = t.param(base + num_terms);
            let gated = t.mul(gate, act);
            let fac = t.sub(one, gated);
            prod = Some(match prod {
                Some(p) => t.mul(p, fac),
                None => fac,
            });
        }
        let dis = t.sub(one, prod.unwrap());
        let loss = t.mean_batch(dis);
        (t, loss, num_terms * lits + lits + 1)
    }

    fn columns(num_terms: usize, b: usize) -> Vec<Vec<f64>> {
        (0..num_terms)
            .map(|t| (0..b).map(|j| ((t * 31 + j * 7) as f64 * 0.11 - 1.3).sin()).collect())
            .collect()
    }

    fn lane_params(np: usize, lanes: usize) -> Vec<f64> {
        (0..lanes * np).map(|i| ((i * 13) as f64 * 0.043 - 0.9).cos()).collect()
    }

    #[test]
    fn lanes_match_scalar_tape_bitwise() {
        let (mut t, loss, np) = gcln_like(5, 3);
        let cols = columns(5, 17);
        for lanes in [1usize, 3, 4, 8] {
            let params = lane_params(np, lanes);
            let mut k = LaneKernel::compile(&t, loss, lanes);
            k.bind_inputs(&cols);
            let vals = k.forward(&params).to_vec();
            let mut grads = vec![f64::NAN; lanes * np];
            k.backward(&mut grads);
            for l in 0..lanes {
                let p = &params[l * np..(l + 1) * np];
                let (v, g) = t.eval_with_grad(loss, &cols, p);
                assert_eq!(v.to_bits(), vals[l].to_bits(), "value lane {l}/{lanes}");
                for (a, b) in grads[l * np..(l + 1) * np].iter().zip(&g) {
                    assert_eq!(a.to_bits(), b.to_bits(), "grad lane {l}/{lanes}");
                }
            }
        }
    }

    #[test]
    fn rebinding_inputs_reuses_kernel() {
        let (mut t, loss, np) = gcln_like(3, 2);
        let mut k = LaneKernel::compile(&t, loss, 4);
        for b in [5usize, 9, 5] {
            let cols = columns(3, b);
            k.bind_inputs(&cols);
            let params = lane_params(np, 4);
            let vals = k.forward(&params).to_vec();
            let (v0, _) = t.eval_with_grad(loss, &cols, &params[..np]);
            assert_eq!(vals[0].to_bits(), v0.to_bits());
        }
    }

    #[test]
    fn pbqu_kernel_matches_scalar() {
        let mut t = Tape::new();
        let x0 = t.input(0);
        let x1 = t.input(1);
        let w0 = t.param(0);
        let w1 = t.param(1);
        let b = t.param(2);
        let z = t.affine(&[w0, w1], &[x0, x1], Some(b));
        let loss = t.pbqu_loss(z, 0.1, 10.0);
        let cols = columns(2, 11);
        let params = lane_params(3, 4);
        let mut k = LaneKernel::compile(&t, loss, 4);
        k.bind_inputs(&cols);
        let vals = k.forward(&params).to_vec();
        let mut grads = vec![0.0; 12];
        k.backward(&mut grads);
        for l in 0..4 {
            let (v, g) = t.eval_with_grad(loss, &cols, &params[l * 3..(l + 1) * 3]);
            assert_eq!(v.to_bits(), vals[l].to_bits());
            for (a, b) in grads[l * 3..(l + 1) * 3].iter().zip(&g) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "bind_inputs")]
    fn forward_before_bind_panics() {
        let (t, loss, _) = gcln_like(2, 1);
        let mut k = LaneKernel::compile(&t, loss, 2);
        k.forward(&[0.0; 16]);
    }
}
