//! Single-head masked self-attention (Eq. 5 of the paper).
//!
//! `Attention(Q,K,V) = softmax(QKᵀ ⊙ M / √d_k) V` with `M` the
//! tree-structured mask: disallowed positions are driven to `-∞` before the
//! softmax, so every node attends to exactly itself and its descendants.
//! DACE uses one head and one layer (Sec. V-A), so no multi-head machinery.
//!
//! Every pass runs through one **block-diagonal** code path: the input is
//! stacked blocks of rows, attention scores are computed only *within*
//! each block, and rows never attend across block boundaries. A single
//! plan is the degenerate case of one block; a packed mini-batch supplies
//! one variable-length block per plan ([`MaskedSelfAttention::forward_packed`]),
//! giving one set of large Q/K/V projections per batch instead of one per
//! plan and per-block score work proportional to each plan's *real* size.
//!
//! Inference that reads only each plan's root row (every latency
//! prediction) skips all of that and runs [`RootAttention`]: the root row
//! alone, from a folded `W_Q·W_Kᵀ` and `W_V`.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::param::Param;
use crate::tensor::Tensor2;
use crate::workspace::{AttnScratch, RootScratch};

fn default_true() -> bool {
    true
}

/// Additive value standing in for `-∞` in masked score positions.
///
/// Kept finite so that a *real* node with every tree position masked would
/// still produce finite probabilities; genuine `-∞` is reserved for padding
/// rows (see [`Tensor2::softmax_rows`]'s fully-masked-row handling).
pub const MASK_NEG: f32 = -1.0e9;

/// Convert a boolean attention mask into an additive score bias.
fn mask_to_bias(mask: &[bool]) -> Vec<f32> {
    mask.iter()
        .map(|&allowed| if allowed { 0.0 } else { MASK_NEG })
        .collect()
}

/// Single-head masked scaled-dot-product self-attention with learned
/// projections `W_Q`, `W_K` (d → d_k) and `W_V` (d → d_v); no biases, as in
/// the paper's Eq. 5.
///
/// Write the projections through [`MaskedSelfAttention::params_mut`] (as
/// the optimizer does): it drops the folded [`RootAttention`] that
/// [`MaskedSelfAttention::root_attention`] caches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaskedSelfAttention {
    /// Query projection, `d × d_k`.
    pub wq: Param,
    /// Key projection, `d × d_k`.
    pub wk: Param,
    /// Value projection, `d × d_v`.
    pub wv: Param,
    d_k: usize,
    #[serde(skip)]
    cache: Option<Cache>,
    /// Root-only inference form, folded on first use.
    #[serde(skip)]
    root: OnceLock<RootAttention>,
    /// Train/eval switch: in eval mode the caching forward entry points
    /// route to their inference twins and skip cloning `x` into the cache.
    #[serde(skip, default = "default_true")]
    train: bool,
}

#[derive(Debug, Clone)]
struct Cache {
    x: Tensor2,
    q: Tensor2,
    k: Tensor2,
    v: Tensor2,
    /// Concatenated per-block probability matrices: block `b` contributes
    /// `lens[b]²` row-major softmax values.
    probs: Vec<f32>,
    /// Rows of each attention block (`[x.rows()]` for a single plan).
    lens: Vec<usize>,
}

impl MaskedSelfAttention {
    /// New attention block with `d`-dim inputs, `d_k`-dim queries/keys and
    /// `d_v`-dim values.
    pub fn new(d: usize, d_k: usize, d_v: usize, seed: u64) -> MaskedSelfAttention {
        MaskedSelfAttention {
            wq: Param::xavier(d, d_k, seed),
            wk: Param::xavier(d, d_k, seed ^ 0x5EED_0001),
            wv: Param::xavier(d, d_v, seed ^ 0x5EED_0002),
            d_k,
            cache: None,
            root: OnceLock::new(),
            train: true,
        }
    }

    /// The root-only inference form of the current weights, folded on the
    /// first call and reused until [`MaskedSelfAttention::params_mut`].
    pub fn root_attention(&self) -> &RootAttention {
        self.root
            .get_or_init(|| RootAttention::from_attention(self))
    }

    /// Switch between training (activations cached for backward) and eval
    /// (no cache clone) behaviour of the caching forward entry points.
    pub fn set_train(&mut self, train: bool) {
        self.train = train;
        if !train {
            self.cache = None;
        }
    }

    /// Forward pass over `x` (`n × d`) with `mask` (`n × n`, row-major;
    /// `mask[i*n+j]` = may node `i` attend to node `j`). Caches for backward.
    pub fn forward(&mut self, x: &Tensor2, mask: &[bool]) -> Tensor2 {
        let bias = mask_to_bias(mask);
        self.forward_bias(x, &bias)
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Tensor2, mask: &[bool]) -> Tensor2 {
        let bias = mask_to_bias(mask);
        self.forward_bias_inference(x, &bias)
    }

    /// Forward pass with an arbitrary additive score bias (`n × n`,
    /// row-major): `softmax((QKᵀ)/√d_k + bias)`. This generalizes boolean
    /// masking (bias = −∞) and supports QueryFormer-style tree-bias
    /// attention (bias = −λ·distance). Caches for backward.
    pub fn forward_bias(&mut self, x: &Tensor2, bias: &[f32]) -> Tensor2 {
        self.forward_block_diag(x, x.rows(), bias)
    }

    /// Biased forward pass without caching (inference).
    pub fn forward_bias_inference(&self, x: &Tensor2, bias: &[f32]) -> Tensor2 {
        self.forward_block_diag_inference(x, x.rows(), bias)
    }

    /// Block-diagonal forward pass over a packed batch. `x` is
    /// `(nb · block) × d`: `nb` plans each padded to `block` rows. `bias`
    /// holds one `block × block` additive score matrix per plan,
    /// concatenated (`bias[b·block² + i·block + j]`); padding rows/columns
    /// carry `-∞` so their probabilities vanish. Caches for backward.
    pub fn forward_block_diag(&mut self, x: &Tensor2, block: usize, bias: &[f32]) -> Tensor2 {
        let lens = Self::uniform_lens(x.rows(), block);
        self.forward_packed(x, &lens, block, bias)
    }

    /// Block-diagonal forward pass without caching (inference).
    pub fn forward_block_diag_inference(&self, x: &Tensor2, block: usize, bias: &[f32]) -> Tensor2 {
        let lens = Self::uniform_lens(x.rows(), block);
        self.forward_packed_inference(x, &lens, block, bias)
    }

    fn uniform_lens(n: usize, block: usize) -> Vec<usize> {
        assert!(
            block > 0 && n.is_multiple_of(block),
            "rows must tile into blocks"
        );
        vec![block; n / block]
    }

    /// Variable-length block-diagonal forward pass. `x` holds the blocks'
    /// rows back to back **without padding**: block `b` occupies the next
    /// `lens[b]` rows. `bias` is still laid out padded — one
    /// `stride × stride` matrix per block of which only the leading
    /// `lens[b] × lens[b]` corner is read — so a [`PackedBatch`]-style bias
    /// buffer works for both the padded and the compacted row layouts.
    /// Caches for backward.
    ///
    /// This is the fast path for mini-batch training: score/softmax/PV work
    /// is `Σ lens[b]²`, not `nb · stride²`, and the Q/K/V projections only
    /// touch real rows. Results are bit-identical to the padded layout
    /// because padded score columns carry `-∞` bias (probability exactly
    /// zero) and padded rows are all-masked (softmax row exactly zero).
    pub fn forward_packed(
        &mut self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
    ) -> Tensor2 {
        if !self.train {
            return self.forward_packed_inference(x, lens, stride, bias);
        }
        let (q, k, v, probs) = self.project_packed(x, lens, stride, bias);
        let out = Self::apply_probs(&probs, &v, lens);
        self.cache = Some(Cache {
            x: x.clone(),
            q,
            k,
            v,
            probs,
            lens: lens.to_vec(),
        });
        out
    }

    /// Workspace twin of [`forward_packed`]: every intermediate lives in
    /// `ws` and the attention output lands in `out`, so steady-state calls
    /// allocate nothing. `ws.{q, k, v, probs}` double as the backward
    /// cache — call [`backward_params_ws`] with the same `ws`. Same kernels
    /// and op order as [`forward_packed`], so results are bit-identical.
    ///
    /// [`forward_packed`]: MaskedSelfAttention::forward_packed
    /// [`backward_params_ws`]: MaskedSelfAttention::backward_params_ws
    pub fn forward_packed_ws(
        &self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
        ws: &mut AttnScratch,
        out: &mut Tensor2,
    ) {
        let n = x.rows();
        assert_eq!(n, lens.iter().sum::<usize>(), "lens must cover all rows");
        assert!(
            lens.iter().all(|&l| l <= stride),
            "block longer than bias stride"
        );
        assert_eq!(
            bias.len(),
            lens.len() * stride * stride,
            "bias must be stride² per block"
        );
        x.matmul_into(&self.wq.value, &mut ws.q);
        x.matmul_into(&self.wk.value, &mut ws.k);
        x.matmul_into(&self.wv.value, &mut ws.v);
        let scale = 1.0 / (self.d_k as f32).sqrt();
        ws.probs.clear();
        out.resize_zeroed(n, self.wv.value.cols());
        let mut start = 0;
        for (b, &l) in lens.iter().enumerate() {
            ws.qb.copy_row_block_from(&ws.q, start, l);
            ws.kb.copy_row_block_from(&ws.k, start, l);
            ws.qb.matmul_nt_into(&ws.kb, &mut ws.scores);
            ws.scores.scale(scale);
            let bias_b = &bias[b * stride * stride..(b + 1) * stride * stride];
            for i in 0..l {
                let row = ws.scores.row_mut(i);
                for (s, &bv) in row.iter_mut().zip(&bias_b[i * stride..i * stride + l]) {
                    *s += bv;
                }
            }
            ws.scores.softmax_rows();
            ws.probs.extend_from_slice(ws.scores.as_slice());
            ws.vb.copy_row_block_from(&ws.v, start, l);
            ws.scores.matmul_into(&ws.vb, &mut ws.blk);
            out.set_row_block(start, &ws.blk);
            start += l;
        }
    }

    /// Workspace twin of [`backward_params_only`]: reads the Q/K/V/probs a
    /// [`forward_packed_ws`] call left in `ws` and accumulates
    /// dW_Q/dW_K/dW_V with the same op order (so gradients are
    /// bit-identical), never materializing `dx` — correct because attention
    /// is the model's first layer.
    ///
    /// [`backward_params_only`]: MaskedSelfAttention::backward_params_only
    /// [`forward_packed_ws`]: MaskedSelfAttention::forward_packed_ws
    pub fn backward_params_ws(
        &mut self,
        d_out: &Tensor2,
        x: &Tensor2,
        lens: &[usize],
        ws: &mut AttnScratch,
    ) {
        let n = x.rows();
        assert_eq!(d_out.rows(), n, "d_out must match forward rows");
        let scale = 1.0 / (self.d_k as f32).sqrt();
        ws.dq.resize_zeroed(n, ws.q.cols());
        ws.dk.resize_zeroed(n, ws.k.cols());
        ws.dv.resize_zeroed(n, ws.v.cols());
        let (mut start, mut p) = (0, 0);
        for &l in lens {
            ws.pb.copy_from_slice_shaped(l, l, &ws.probs[p..p + l * l]);
            ws.dob.copy_row_block_from(d_out, start, l);
            ws.vb.copy_row_block_from(&ws.v, start, l);

            // dV_b = P_bᵀ @ dOut_b ; dP_b = dOut_b @ V_bᵀ
            ws.pb.matmul_tn_into(&ws.dob, &mut ws.blk);
            ws.dv.set_row_block(start, &ws.blk);
            ws.dob.matmul_nt_into(&ws.vb, &mut ws.dp);

            // Softmax backward per row: ds = p ⊙ (dp − ⟨dp, p⟩).
            ws.dscores.resize_zeroed(l, l);
            for i in 0..l {
                let p_row = ws.pb.row(i);
                let dp_row = ws.dp.row(i);
                let dot: f32 = p_row.iter().zip(dp_row).map(|(a, b)| a * b).sum();
                let out_row = ws.dscores.row_mut(i);
                for j in 0..l {
                    out_row[j] = p_row[j] * (dp_row[j] - dot) * scale;
                }
            }

            // dQ_b = dS_b @ K_b ; dK_b = dS_bᵀ @ Q_b
            ws.kb.copy_row_block_from(&ws.k, start, l);
            ws.qb.copy_row_block_from(&ws.q, start, l);
            ws.dscores.matmul_into(&ws.kb, &mut ws.blk);
            ws.dq.set_row_block(start, &ws.blk);
            ws.dscores.matmul_tn_into(&ws.qb, &mut ws.blk);
            ws.dk.set_row_block(start, &ws.blk);
            start += l;
            p += l * l;
        }

        if self.wq.trainable {
            x.matmul_tn_into(&ws.dq, &mut ws.gtmp);
            self.wq.grad.add_assign(&ws.gtmp);
        }
        if self.wk.trainable {
            x.matmul_tn_into(&ws.dk, &mut ws.gtmp);
            self.wk.grad.add_assign(&ws.gtmp);
        }
        if self.wv.trainable {
            x.matmul_tn_into(&ws.dv, &mut ws.gtmp);
            self.wv.grad.add_assign(&ws.gtmp);
        }
    }

    /// Variable-length block-diagonal forward pass without caching.
    pub fn forward_packed_inference(
        &self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
    ) -> Tensor2 {
        let (_, _, v, probs) = self.project_packed(x, lens, stride, bias);
        Self::apply_probs(&probs, &v, lens)
    }

    /// Shared Q/K/V projection + per-block masked softmax. The projections
    /// are three large matmuls over the whole packed input; scores are
    /// computed block-by-block on each block's `lens[b] × lens[b]` corner,
    /// so the cost is `Σ lens[b]²·d_k`, not `(Σ lens[b])²·d_k`.
    fn project_packed(
        &self,
        x: &Tensor2,
        lens: &[usize],
        stride: usize,
        bias: &[f32],
    ) -> (Tensor2, Tensor2, Tensor2, Vec<f32>) {
        let n = x.rows();
        assert_eq!(n, lens.iter().sum::<usize>(), "lens must cover all rows");
        assert!(
            lens.iter().all(|&l| l <= stride),
            "block longer than bias stride"
        );
        assert_eq!(
            bias.len(),
            lens.len() * stride * stride,
            "bias must be stride² per block"
        );
        let q = x.matmul(&self.wq.value);
        let k = x.matmul(&self.wk.value);
        let v = x.matmul(&self.wv.value);
        let scale = 1.0 / (self.d_k as f32).sqrt();
        let mut probs = Vec::with_capacity(lens.iter().map(|l| l * l).sum());
        let mut start = 0;
        for (b, &l) in lens.iter().enumerate() {
            let qb = q.row_block(start, l);
            let kb = k.row_block(start, l);
            let mut scores = qb.matmul_nt(&kb);
            scores.scale(scale);
            let bias_b = &bias[b * stride * stride..(b + 1) * stride * stride];
            for i in 0..l {
                let row = scores.row_mut(i);
                for (s, &bv) in row.iter_mut().zip(&bias_b[i * stride..i * stride + l]) {
                    *s += bv;
                }
            }
            scores.softmax_rows();
            probs.extend_from_slice(scores.as_slice());
            start += l;
        }
        (q, k, v, probs)
    }

    /// `out_b = P_b @ V_b` for each block.
    fn apply_probs(probs: &[f32], v: &Tensor2, lens: &[usize]) -> Tensor2 {
        let mut out = Tensor2::zeros(v.rows(), v.cols());
        let (mut start, mut p) = (0, 0);
        for &l in lens {
            let pb = Tensor2::from_vec(l, l, probs[p..p + l * l].to_vec());
            let vb = v.row_block(start, l);
            out.set_row_block(start, &pb.matmul(&vb));
            start += l;
            p += l * l;
        }
        out
    }

    /// Backward pass: accumulates dW_Q/dW_K/dW_V and returns dx. Works for
    /// any block structure the forward pass cached. With the padded
    /// (`forward_block_diag`) layout, padding rows (zero input, fully
    /// masked, zero upstream gradient) contribute exactly zero to every
    /// weight gradient because both their probability rows and their
    /// `d_out` rows are zero.
    pub fn backward(&mut self, d_out: &Tensor2) -> Tensor2 {
        let (dq, dk, dv) = self.backward_accumulate(d_out);
        let mut dx = dq.matmul_nt(&self.wq.value);
        dx.add_assign(&dk.matmul_nt(&self.wk.value));
        dx.add_assign(&dv.matmul_nt(&self.wv.value));
        dx
    }

    /// Backward pass that only accumulates the weight gradients, skipping
    /// the three `dx` back-projections. Correct whenever the caller
    /// discards `dx` — i.e. whenever attention is the first layer.
    pub fn backward_params_only(&mut self, d_out: &Tensor2) {
        let _ = self.backward_accumulate(d_out);
    }

    /// Shared backward core: per-block gradients through PV, softmax and
    /// the score product, plus dW_Q/dW_K/dW_V accumulation. Returns
    /// (dQ, dK, dV) for the `dx` projections.
    fn backward_accumulate(&mut self, d_out: &Tensor2) -> (Tensor2, Tensor2, Tensor2) {
        let Cache {
            x,
            q,
            k,
            v,
            probs,
            lens,
        } = self.cache.take().expect("backward called before forward");
        let n = x.rows();
        assert_eq!(d_out.rows(), n, "d_out must match cached rows");
        let scale = 1.0 / (self.d_k as f32).sqrt();

        let mut dq = Tensor2::zeros(n, q.cols());
        let mut dk = Tensor2::zeros(n, k.cols());
        let mut dv = Tensor2::zeros(n, v.cols());
        let (mut start, mut p) = (0, 0);
        for &l in &lens {
            let pb = Tensor2::from_vec(l, l, probs[p..p + l * l].to_vec());
            let d_out_b = d_out.row_block(start, l);
            let vb = v.row_block(start, l);

            // dV_b = P_bᵀ @ dOut_b ; dP_b = dOut_b @ V_bᵀ
            dv.set_row_block(start, &pb.matmul_tn(&d_out_b));
            let dp = d_out_b.matmul_nt(&vb);

            // Softmax backward per row: ds = p ⊙ (dp − ⟨dp, p⟩).
            let mut dscores = Tensor2::zeros(l, l);
            for i in 0..l {
                let p_row = pb.row(i);
                let dp_row = dp.row(i);
                let dot: f32 = p_row.iter().zip(dp_row).map(|(a, b)| a * b).sum();
                let out_row = dscores.row_mut(i);
                for j in 0..l {
                    out_row[j] = p_row[j] * (dp_row[j] - dot) * scale;
                }
            }

            // dQ_b = dS_b @ K_b ; dK_b = dS_bᵀ @ Q_b
            let kb = k.row_block(start, l);
            let qb = q.row_block(start, l);
            dq.set_row_block(start, &dscores.matmul(&kb));
            dk.set_row_block(start, &dscores.matmul_tn(&qb));
            start += l;
            p += l * l;
        }

        if self.wq.trainable {
            self.wq.grad.add_assign(&x.matmul_tn(&dq));
        }
        if self.wk.trainable {
            self.wk.grad.add_assign(&x.matmul_tn(&dk));
        }
        if self.wv.trainable {
            self.wv.grad.add_assign(&x.matmul_tn(&dv));
        }
        (dq, dk, dv)
    }

    /// Mutable references to the projection parameters. Drops the folded
    /// root form, which the next [`MaskedSelfAttention::root_attention`]
    /// call rebuilds from the updated weights.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.root.take();
        vec![&mut self.wq, &mut self.wk, &mut self.wv]
    }

    /// Total scalar parameters.
    pub fn param_count(&self) -> usize {
        self.wq.count() + self.wk.count() + self.wv.count()
    }
}

/// Root-only inference form of [`MaskedSelfAttention`]: the attention
/// output of each plan's root row (node 0 in DFS order) and nothing else.
///
/// A latency prediction reads only the root row, so it needs no Q, K or V
/// for the other nodes. The root's score against node `j` is
/// `q₀·k_jᵀ/√d_k = x₀·M·x_jᵀ` with the folded `M = W_Q·W_Kᵀ/√d_k`
/// (`d × d`), and its output is `Σ p_j·x_j·W_V = x̄·W_V`. Per plan that is
/// one `d × d` vector product, `n` dot products and a weighted sum over the
/// `d`-wide inputs, then one batched `b × d · d × d_v` matmul for the whole
/// batch: `O(d² + n·d)` work per plan instead of
/// `O(3·n·d·d_k + Σᵢ|subtreeᵢ|·d_k)`.
///
/// Each plan's score, softmax and weighted sum run on that plan's rows
/// alone, and the matmul kernels are row-independent, so a plan's output
/// does not depend on the other plans of its batch.
#[derive(Debug, Clone)]
pub struct RootAttention {
    /// `W_Q·W_Kᵀ/√d_k`, `d × d`.
    qk: Tensor2,
    /// `W_V`, `d × d_v`.
    wv: Tensor2,
}

impl RootAttention {
    /// Fold an attention block's projections.
    pub fn from_attention(attn: &MaskedSelfAttention) -> RootAttention {
        let mut qk = attn.wq.value.matmul_nt(&attn.wk.value);
        qk.scale(1.0 / (attn.d_k as f32).sqrt());
        RootAttention {
            qk,
            wv: attn.wv.value.clone(),
        }
    }

    /// Bytes held by the folded weights.
    pub fn bytes(&self) -> usize {
        (self.qk.len() + self.wv.len()) * std::mem::size_of::<f32>()
    }

    /// Root attention rows of a batch of plans into `out` (`b × d_v`, row
    /// `b` for plan `b`). Each block is a plan's node rows `x` (`n × d`,
    /// the root first) and the root's mask row (`n` entries: may the root
    /// attend to node `j`). Masked nodes get probability exactly zero; a
    /// root that may attend to nothing gets a zero row, never NaN.
    pub fn forward_into<'a, I>(&self, blocks: I, ws: &mut RootScratch, out: &mut Tensor2)
    where
        I: ExactSizeIterator<Item = (&'a Tensor2, &'a [bool])>,
    {
        let d = self.qk.rows();
        ws.xbar.resize_zeroed(blocks.len(), d);
        ws.u.resize_zeroed(1, d);
        for (b, (x, root_mask)) in blocks.enumerate() {
            let n = x.rows();
            assert_eq!(x.cols(), d, "node width mismatch");
            assert_eq!(root_mask.len(), n, "root mask must cover every node");
            if !root_mask.contains(&true) {
                continue; // nothing to attend to: zero row
            }
            // u = x₀·M, then the root's scores s_j = u·x_j.
            Tensor2::row_combine(x.row(0), &self.qk, 0, ws.u.row_mut(0));
            if ws.scores.len() < n {
                ws.scores.resize(n, 0.0);
            }
            let s = &mut ws.scores[..n];
            ws.u.row_dots_nt(0, x, 0, n, s);
            let mut max = f32::NEG_INFINITY;
            for (v, &allowed) in s.iter_mut().zip(root_mask) {
                if allowed {
                    max = max.max(*v);
                } else {
                    *v = f32::NEG_INFINITY;
                }
            }
            let mut sum = 0.0;
            for v in s.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in s.iter_mut() {
                *v /= sum;
            }
            Tensor2::row_combine(s, x, 0, ws.xbar.row_mut(b));
        }
        ws.xbar.matmul_into(&self.wv, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_mask(n: usize) -> Vec<bool> {
        vec![true; n * n]
    }

    /// Lower-triangular-style tree mask: node 0 sees all, leaves see self.
    fn chain_mask(n: usize) -> Vec<bool> {
        let mut m = vec![false; n * n];
        for i in 0..n {
            for j in i..n {
                m[i * n + j] = true;
            }
        }
        m
    }

    #[test]
    fn masked_rows_ignore_disallowed_positions() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        let x = Tensor2::uniform(3, 4, 1.0, 7);
        let out_full = attn.forward_inference(&x, &full_mask(3));
        let out_chain = attn.forward_inference(&x, &chain_mask(3));
        // The last node attends only to itself under the chain mask: its
        // output must equal its own value projection.
        let v = x.matmul(&attn.wv.value);
        for c in 0..8 {
            assert!((out_chain.get(2, c) - v.get(2, c)).abs() < 1e-5);
        }
        // And the restricted rows must differ from the fully-attended output
        // (row 0 sees everything under both masks, so compare row 2).
        let differs = (0..8).any(|c| (out_full.get(2, c) - out_chain.get(2, c)).abs() > 1e-6);
        assert!(differs);
    }

    #[test]
    fn changing_a_masked_out_node_does_not_change_output() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        let mut x = Tensor2::uniform(3, 4, 1.0, 7);
        let mask = chain_mask(3);
        let before = attn.forward_inference(&x, &mask);
        // Node 0 is masked out from node 2's view (mask[2][0] = false) and
        // node 1's view; perturb node 0 and check rows 1, 2 are unchanged.
        x.set(0, 0, x.get(0, 0) + 10.0);
        let after = attn.forward_inference(&x, &mask);
        for r in 1..3 {
            for c in 0..8 {
                assert!(
                    (before.get(r, c) - after.get(r, c)).abs() < 1e-5,
                    "row {r} changed despite mask"
                );
            }
        }
    }

    #[test]
    fn block_diag_matches_per_plan_forwards() {
        let attn = MaskedSelfAttention::new(4, 8, 8, 3);
        // Two "plans": 2 and 3 nodes, padded to block = 3.
        let xa = Tensor2::uniform(2, 4, 1.0, 7);
        let xb = Tensor2::uniform(3, 4, 1.0, 8);
        let ma = chain_mask(2);
        let mb = chain_mask(3);
        let out_a = attn.forward_inference(&xa, &ma);
        let out_b = attn.forward_inference(&xb, &mb);

        let block = 3;
        let mut x = Tensor2::zeros(2 * block, 4);
        for r in 0..2 {
            for c in 0..4 {
                x.set(r, c, xa.get(r, c));
            }
        }
        for r in 0..3 {
            for c in 0..4 {
                x.set(block + r, c, xb.get(r, c));
            }
        }
        // Bias: MASK_NEG for real tree-masked positions, -inf wherever a
        // padding row or column is involved.
        let mut bias = vec![f32::NEG_INFINITY; 2 * block * block];
        for i in 0..2 {
            for j in 0..2 {
                bias[i * block + j] = if ma[i * 2 + j] { 0.0 } else { MASK_NEG };
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                bias[block * block + i * block + j] = if mb[i * 3 + j] { 0.0 } else { MASK_NEG };
            }
        }
        let out = attn.forward_block_diag_inference(&x, block, &bias);
        for r in 0..2 {
            for c in 0..8 {
                assert!((out.get(r, c) - out_a.get(r, c)).abs() < 1e-5);
            }
        }
        for r in 0..3 {
            for c in 0..8 {
                assert!((out.get(block + r, c) - out_b.get(r, c)).abs() < 1e-5);
            }
        }
        // The padding row (fully masked) must come out exactly zero.
        for c in 0..8 {
            assert_eq!(out.get(2, c), 0.0);
        }
    }

    #[test]
    fn workspace_packed_pass_matches_caching_path() {
        let mut a = MaskedSelfAttention::new(4, 8, 8, 3);
        let mut b = a.clone();
        // Two blocks of 2 and 3 rows, compact layout, stride 3.
        let x = Tensor2::uniform(5, 4, 1.0, 7);
        let stride = 3;
        let mut bias = vec![f32::NEG_INFINITY; 2 * stride * stride];
        let (ma, mb) = (chain_mask(2), chain_mask(3));
        for i in 0..2 {
            for j in 0..2 {
                bias[i * stride + j] = if ma[i * 2 + j] { 0.0 } else { MASK_NEG };
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                bias[stride * stride + i * stride + j] = if mb[i * 3 + j] { 0.0 } else { MASK_NEG };
            }
        }
        let lens = [2usize, 3];
        let d_out = Tensor2::uniform(5, 8, 1.0, 19);

        let out = a.forward_packed(&x, &lens, stride, &bias);
        a.backward_params_only(&d_out);

        let mut ws = AttnScratch::default();
        let mut out_ws = Tensor2::default();
        b.forward_packed_ws(&x, &lens, stride, &bias, &mut ws, &mut out_ws);
        b.backward_params_ws(&d_out, &x, &lens, &mut ws);

        assert_eq!(out.as_slice(), out_ws.as_slice());
        for (pa, pb) in a.params_mut().iter().zip(b.params_mut().iter()) {
            assert_eq!(pa.grad.as_slice(), pb.grad.as_slice());
        }

        // A second pass through the same (warmed) workspace must agree too.
        b.forward_packed_ws(&x, &lens, stride, &bias, &mut ws, &mut out_ws);
        assert_eq!(out.as_slice(), out_ws.as_slice());
    }

    /// Root-only attention over `blocks` (node rows, full `n × n` mask).
    fn root_rows(attn: &MaskedSelfAttention, blocks: &[(&Tensor2, &[bool])]) -> Tensor2 {
        let mut ws = RootScratch::default();
        let mut out = Tensor2::default();
        attn.root_attention().forward_into(
            blocks.iter().map(|&(x, m)| (x, &m[..x.rows()])),
            &mut ws,
            &mut out,
        );
        out
    }

    #[test]
    fn root_attention_matches_row_zero_of_the_full_forward() {
        let attn = MaskedSelfAttention::new(16, 32, 24, 11);
        // Three plans in one batch: a chain, a single node, a full mask.
        let (xa, xb, xc) = (
            Tensor2::uniform(5, 16, 1.0, 12),
            Tensor2::uniform(1, 16, 1.0, 13),
            Tensor2::uniform(4, 16, 1.0, 14),
        );
        let (ma, mb, mc) = (chain_mask(5), full_mask(1), full_mask(4));
        let got = root_rows(&attn, &[(&xa, &ma), (&xb, &mb), (&xc, &mc)]);
        assert_eq!((got.rows(), got.cols()), (3, 24));
        for (b, (x, m)) in [(&xa, &ma), (&xb, &mb), (&xc, &mc)].into_iter().enumerate() {
            let want = attn.forward_inference(x, m);
            for (g, w) in got.row(b).iter().zip(want.row(0)) {
                assert!((g - w).abs() < 1e-5, "plan {b}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn non_interval_root_mask_matches_the_full_forward() {
        let attn = MaskedSelfAttention::new(8, 16, 16, 15);
        let x = Tensor2::uniform(4, 8, 1.0, 16);
        // The root attends to {0, 2, 3}: not an interval.
        let mut mask = full_mask(4);
        mask[1] = false;
        let got = root_rows(&attn, &[(&x, &mask)]);
        let want = attn.forward_inference(&x, &mask);
        for (g, w) in got.row(0).iter().zip(want.row(0)) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn fully_masked_root_yields_finite_zero_output() {
        let attn = MaskedSelfAttention::new(8, 16, 16, 13);
        let x = Tensor2::uniform(3, 8, 1.0, 14);
        let xb = Tensor2::uniform(2, 8, 1.0, 15);
        // The first plan's root attends to nothing; the second is normal.
        let mut mask = full_mask(3);
        mask[..3].fill(false);
        let got = root_rows(&attn, &[(&x, &mask), (&xb, &chain_mask(2))]);
        assert!(got.as_slice().iter().all(|v| v.is_finite()));
        assert!(got.row(0).iter().all(|&v| v == 0.0), "masked root not zero");
        assert!(got.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn params_mut_refolds_the_root_form() {
        let mut attn = MaskedSelfAttention::new(4, 8, 8, 3);
        let x = Tensor2::uniform(3, 4, 1.0, 7);
        let mask = chain_mask(3);
        let before = root_rows(&attn, &[(&x, &mask)]);
        for p in attn.params_mut() {
            p.value.scale(0.5);
        }
        let after = root_rows(&attn, &[(&x, &mask)]);
        let want = attn.forward_inference(&x, &mask);
        assert_ne!(before.as_slice(), after.as_slice());
        for (g, w) in after.row(0).iter().zip(want.row(0)) {
            assert!((g - w).abs() < 1e-5, "stale fold: {g} vs {w}");
        }
    }

    #[test]
    fn eval_mode_packed_forward_skips_cache() {
        let mut a = MaskedSelfAttention::new(4, 8, 8, 3);
        let x = Tensor2::uniform(3, 4, 1.0, 7);
        let bias = mask_to_bias(&chain_mask(3));
        a.set_train(false);
        let out = a.forward_packed(&x, &[3], 3, &bias);
        assert!(a.cache.is_none());
        assert_eq!(
            out.as_slice(),
            a.forward_packed_inference(&x, &[3], 3, &bias).as_slice()
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut attn = MaskedSelfAttention::new(3, 4, 4, 11);
        let x = Tensor2::uniform(4, 3, 1.0, 17);
        let mask = chain_mask(4);
        let y = attn.forward(&x, &mask);
        let dx = attn.backward(&y); // loss = ||y||²/2

        let eps = 1e-2f32;
        let loss = |attn: &MaskedSelfAttention, x: &Tensor2| {
            0.5 * attn.forward_inference(x, &mask).norm_sq()
        };

        // Check each projection matrix.
        for which in 0..3 {
            let len = match which {
                0 => attn.wq.value.len(),
                1 => attn.wk.value.len(),
                _ => attn.wv.value.len(),
            };
            for idx in 0..len {
                let (orig, ana) = {
                    let p = match which {
                        0 => &attn.wq,
                        1 => &attn.wk,
                        _ => &attn.wv,
                    };
                    (p.value.as_slice()[idx], p.grad.as_slice()[idx])
                };
                let set = |attn: &mut MaskedSelfAttention, v: f32| {
                    let p = match which {
                        0 => &mut attn.wq,
                        1 => &mut attn.wk,
                        _ => &mut attn.wv,
                    };
                    p.value.as_mut_slice()[idx] = v;
                };
                set(&mut attn, orig + eps);
                let lp = loss(&attn, &x);
                set(&mut attn, orig - eps);
                let lm = loss(&attn, &x);
                set(&mut attn, orig);
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                    "W{which}[{idx}]: numeric {num} vs analytic {ana}"
                );
            }
        }
        // Check dx.
        let mut x2 = x.clone();
        for idx in 0..x2.len() {
            let orig = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&attn, &x2);
            x2.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&attn, &x2);
            x2.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                "dx[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }
}
