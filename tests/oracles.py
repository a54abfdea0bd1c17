"""Slow, loop-based reference implementations used as independent oracles by
the test suite.

Everything here is written as plain nested loops (plus per-vector numpy
dot products) on purpose: these functions must stay independent of the
vectorized production paths they are checked against. Tie-breaking matches
the production rule: the smallest row-major position wins.
"""

import math

import numpy as np


def conv2d_reference(x, weights, bias, stride):
    """Direct 3x3 convolution, zero padding 1, as explicit loops."""
    c_out, c_in = weights.shape[:2]
    _, h, w = x.shape
    h_out = (h - 1) // stride + 1
    w_out = (w - 1) // stride + 1
    padded = np.zeros((c_in, h + 2, w + 2))
    padded[:, 1 : h + 1, 1 : w + 1] = x
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for p in range(h_out):
            for q in range(w_out):
                total = bias[o]
                for i in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            total += weights[o, i, dy, dx] * padded[i, stride * p + dy, stride * q + dx]
                out[o, p, q] = total
    return out


def conv_transpose2d_reference(x, weights, bias):
    """Stride-2 transposed 3x3 convolution by scatter-add loops; ``weights``
    is (in, out, 3, 3)."""
    c_in, c_out = weights.shape[:2]
    _, h, w = x.shape
    canvas = np.zeros((c_out, 2 * h + 2, 2 * w + 2))
    for i in range(c_in):
        for p in range(h):
            for q in range(w):
                for o in range(c_out):
                    for dy in range(3):
                        for dx in range(3):
                            canvas[o, 2 * p + dy, 2 * q + dx] += weights[i, o, dy, dx] * x[i, p, q]
    out = canvas[:, 1 : 1 + 2 * h, 1 : 1 + 2 * w]
    for o in range(c_out):
        out[o] += bias[o]
    return out


def bilinear_reference(x, factor):
    """Per-pixel bilinear interpolation from the coordinate formula."""
    c, h, w = x.shape
    out = np.zeros((c, h * factor, w * factor))
    for i in range(h * factor):
        for j in range(w * factor):
            sy = min(max((i + 0.5) / factor - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) / factor - 0.5, 0.0), w - 1.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            for ch in range(c):
                top = x[ch, y0, x0] * (1 - fx) + x[ch, y0, x1] * fx
                bot = x[ch, y1, x0] * (1 - fx) + x[ch, y1, x1] * fx
                out[ch, i, j] = top * (1 - fy) + bot * fy
    return out


def attention_reference(tokens, qkv_weight, qkv_bias, proj_weight, proj_bias,
                        bias_table, rel_index, num_heads, mask_row=None):
    """Brute-force single-window multi-head attention over a token matrix."""
    n, dim = tokens.shape
    head_dim = dim // num_heads
    qkv = tokens @ qkv_weight.T + qkv_bias
    q, k, v = qkv[:, :dim], qkv[:, dim : 2 * dim], qkv[:, 2 * dim :]
    out = np.zeros((n, dim))
    for head in range(num_heads):
        lo, hi = head * head_dim, (head + 1) * head_dim
        for a in range(n):
            logits = np.empty(n)
            for b in range(n):
                logits[b] = float(q[a, lo:hi] @ k[b, lo:hi]) / math.sqrt(head_dim)
                logits[b] += bias_table[rel_index[a, b], head]
                if mask_row is not None:
                    logits[b] += mask_row[a, b]
            peak = logits.max()
            weights = np.array([math.exp(l - peak) for l in logits])
            weights /= weights.sum()
            for b in range(n):
                out[a, lo:hi] += weights[b] * v[b, lo:hi]
    return out @ proj_weight.T + proj_bias


def stl_reference(x, params, window, shift, num_heads, eps=1e-5):
    """One Swin layer token by token: layer norm, reflection padding to
    window multiples, cyclic shift by ``-shift``, per-window attention with
    cross-region pairs masked, un-shift and crop, residual, then the
    layer-norm MLP and its residual."""
    channels, h, w = x.shape
    hp, wp = h + (-h) % window, w + (-w) % window

    def norm(v, gain, bias):
        mean = v.sum() / len(v)
        var = float(((v - mean) ** 2).sum()) / len(v)
        return (v - mean) / math.sqrt(var + eps) * gain + bias

    def reflect(i, n):
        return i if i < n else 2 * (n - 1) - i

    def band(i, n):
        return 0 if i < n - window else (1 if i < n - shift else 2)

    rel_index = np.zeros((window * window, window * window), dtype=np.int64)
    for a in range(window * window):
        for b in range(window * window):
            dr = a // window - b // window + window - 1
            dc = a % window - b % window + window - 1
            rel_index[a, b] = dr * (2 * window - 1) + dc
    attended = np.zeros((hp, wp, channels))  # in the shifted frame
    for top in range(0, hp, window):
        for left in range(0, wp, window):
            cells = [(top + i, left + j) for i in range(window) for j in range(window)]
            tokens = np.array([
                norm(x[:, reflect((r + shift) % hp, h), reflect((c + shift) % wp, w)],
                     params.norm1_gain, params.norm1_bias)
                for r, c in cells
            ])
            mask_row = None
            if shift:
                ids = [3 * band(r, hp) + band(c, wp) for r, c in cells]
                mask_row = np.array([[0.0 if ia == ib else -1e9 for ib in ids] for ia in ids])
            out = attention_reference(tokens, params.qkv_weight, params.qkv_bias,
                                      params.proj_weight, params.proj_bias, params.bias_table,
                                      rel_index, num_heads, mask_row)
            for k, (r, c) in enumerate(cells):
                attended[r, c] = out[k]
    result = np.zeros((channels, h, w))
    for r in range(h):
        for c in range(w):
            y = x[:, r, c] + attended[(r - shift) % hp, (c - shift) % wp]
            hidden = params.fc1_weight @ norm(y, params.norm2_gain, params.norm2_bias) + params.fc1_bias
            hidden = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in hidden])
            result[:, r, c] = y + params.fc2_weight @ hidden + params.fc2_bias
    return result


def _cosine(a, b, eps=1e-8):
    num = float(np.dot(a, b))
    return num / ((math.sqrt(float(np.dot(a, a))) + eps) * (math.sqrt(float(np.dot(b, b))) + eps))


def coarse_match_reference(tar_patch, ref_features, cfg):
    """Exhaustive sliding-window template search; returns (center, topleft,
    similarity) with first-position tie-breaking."""
    c = cfg.center_size
    row0 = (cfg.patch_size - c) // 2
    col0 = (cfg.patch_size - c) // 2
    template = tar_patch[:, row0 : row0 + c, col0 : col0 + c].reshape(-1)
    _, h, w = ref_features.shape
    best_score = -math.inf
    best_pos = (0, 0)
    for top in range(h - c + 1):
        for left in range(w - c + 1):
            window = ref_features[:, top : top + c, left : left + c].reshape(-1)
            score = _cosine(template, window)
            if score > best_score:
                best_score = score
                best_pos = (top, left)
    center = (best_pos[0] + c // 2, best_pos[1] + c // 2)
    top = min(max(best_pos[0] - row0, 0), h - cfg.patch_size)
    left = min(max(best_pos[1] - col0, 0), w - cfg.patch_size)
    return center, (top, left), best_score


def region_match_reference(tar_patch, ref_patch, cfg):
    """Exhaustive region correspondence: every target region against every
    reference region."""
    r = cfg.region_size
    zh = cfg.patch_size - r + 1
    zw = cfg.patch_size - r + 1
    index_map = np.zeros((zh, zw, 2), dtype=np.int64)
    similarity_map = np.zeros((zh, zw))
    for zr in range(zh):
        for zc in range(zw):
            target = tar_patch[:, zr : zr + r, zc : zc + r].reshape(-1)
            best_score = -math.inf
            best_g = (0, 0)
            for gr in range(zh):
                for gc in range(zw):
                    candidate = ref_patch[:, gr : gr + r, gc : gc + r].reshape(-1)
                    score = _cosine(target, candidate)
                    if score > best_score:
                        best_score = score
                        best_g = (gr, gc)
            index_map[zr, zc] = best_g
            similarity_map[zr, zc] = best_score
    return index_map, similarity_map


def matched_level1_reference(f_tar, f_ref, level1, cfg):
    """Exhaustive level-1 matched features: partition (bottom/right
    reflection pad), per-patch coarse + region matching, visit-count blends
    of both content and similarity, multiply, merge, crop."""
    channels, h, w = f_tar.shape
    ph, pw, r = cfg.patch_size, cfg.patch_size, cfg.region_size
    pad_h = (-h) % ph
    pad_w = (-w) % pw
    padded = np.pad(f_tar, ((0, 0), (0, pad_h), (0, pad_w)), mode="reflect") if pad_h or pad_w else f_tar
    rows = (h + pad_h) // ph
    cols = (w + pad_w) // pw
    canvas = np.zeros((channels, (h + pad_h), (w + pad_w)))
    for gy in range(rows):
        for gx in range(cols):
            patch = padded[:, gy * ph : (gy + 1) * ph, gx * pw : (gx + 1) * pw]
            _, (top, left), _ = coarse_match_reference(patch, f_ref, cfg)
            ref_patch = level1[:, top : top + ph, left : left + pw]
            index_map, similarity_map = region_match_reference(patch, ref_patch, cfg)
            content = np.zeros((channels, ph, pw))
            hits = np.zeros((ph, pw))
            sim_acc = np.zeros((ph, pw))
            for zr in range(ph - r + 1):
                for zc in range(pw - r + 1):
                    gr, gc = index_map[zr, zc]
                    content[:, zr : zr + r, zc : zc + r] += ref_patch[:, gr : gr + r, gc : gc + r]
                    hits[zr : zr + r, zc : zc + r] += 1.0
                    sim_acc[zr : zr + r, zc : zc + r] += similarity_map[zr, zc]
            block = (content / hits) * (sim_acc / hits)[None]
            canvas[:, gy * ph : (gy + 1) * ph, gx * pw : (gx + 1) * pw] = block
    return canvas[:, :h, :w]


def compute_matches_reference(f_tar, f_ref, cfg):
    """Index and similarity maps for every patch, fully exhaustive."""
    channels, h, w = f_tar.shape
    ph, pw = cfg.patch_size, cfg.patch_size
    pad_h = (-h) % ph
    pad_w = (-w) % pw
    padded = np.pad(f_tar, ((0, 0), (0, pad_h), (0, pad_w)), mode="reflect") if pad_h or pad_w else f_tar
    rows = (h + pad_h) // ph
    cols = (w + pad_w) // pw
    out = []
    for gy in range(rows):
        for gx in range(cols):
            patch = padded[:, gy * ph : (gy + 1) * ph, gx * pw : (gx + 1) * pw]
            center, (top, left), similarity = coarse_match_reference(patch, f_ref, cfg)
            ref_patch = f_ref[:, top : top + ph, left : left + pw]
            index_map, similarity_map = region_match_reference(patch, ref_patch, cfg)
            out.append(
                {
                    "center": center,
                    "topleft": (top, left),
                    "similarity": similarity,
                    "index_map": index_map,
                    "similarity_map": similarity_map,
                }
            )
    return out


def ssim_reference(a, b, max_value=1.0, window=11, sigma=1.5):
    """Sliding-window SSIM with per-window loops."""
    coords = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    c1 = (0.01 * max_value) ** 2
    c2 = (0.03 * max_value) ** 2
    h, w = a.shape
    values = []
    for top in range(h - window + 1):
        for left in range(w - window + 1):
            wa = a[top : top + window, left : left + window]
            wb = b[top : top + window, left : left + window]
            mu_a = float((kernel * wa).sum())
            mu_b = float((kernel * wb).sum())
            var_a = float((kernel * wa * wa).sum()) - mu_a * mu_a
            var_b = float((kernel * wb * wb).sum()) - mu_b * mu_b
            cov = float((kernel * wa * wb).sum()) - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
            values.append(num / den)
    return float(np.mean(values))


def finite_difference_gradient(func, image, step=1e-4):
    """Central finite differences of a scalar function of an image."""
    grad = np.zeros_like(image)
    for i in range(image.shape[0]):
        for j in range(image.shape[1]):
            bumped = image.copy()
            bumped[i, j] += step
            plus = func(bumped)
            bumped[i, j] -= 2 * step
            minus = func(bumped)
            grad[i, j] = (plus - minus) / (2 * step)
    return grad


def make_bandlimited_image(height, width, uf, rng, offset=0.5, amplitude=0.25):
    """Real image in [0, 1] whose spectrum lies strictly inside the central
    retention block (one bin of margin, keeping the support symmetric so the
    signal stays real on both the HR and the cropped LR grid)."""
    bh, bw = height // uf, width // uf
    top, left = (height - bh) // 2, (width - bw) // 2
    spectrum = np.zeros((height, width), dtype=np.complex128)
    raw = rng.standard_normal((bh - 1, bw - 1)) + 1j * rng.standard_normal((bh - 1, bw - 1))
    spectrum[top + 1 : top + bh, left + 1 : left + bw] = raw
    # Hermitian pairing about the DC bin keeps the inverse transform real.
    sym = np.zeros_like(spectrum)
    for p in range(top + 1, top + bh):
        for q in range(left + 1, left + bw):
            sym[p, q] = 0.5 * (spectrum[p, q] + np.conj(spectrum[height - p, width - q]))
    image = np.fft.ifft2(np.fft.ifftshift(sym)).real
    peak = np.max(np.abs(image))
    if peak > 0:
        image = image / peak * amplitude
    return offset + image


class LcgReference:
    """The weight initializer's 64-bit LCG as its scalar recurrence, one
    state per draw; the two constants are restated here, not imported."""

    def __init__(self, seed):
        self.state = seed

    def next_u32(self):
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return self.state >> 32
