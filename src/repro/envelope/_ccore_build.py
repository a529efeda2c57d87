"""cffi out-of-line API builder for the compiled fused-insert core.

Running this module (``python src/repro/envelope/_ccore_build.py``)
compiles ``repro.envelope._repro_ccore`` — a small C extension holding
the whole per-insert hot path of the sequential algorithm as **one C
call** against the :class:`~repro.envelope.packed.PackedProfile`
``(5, capacity)`` float64 buffer:

* locate — the binary search of
  :meth:`~repro.envelope.flat.FlatEnvelope.pieces_overlapping` on the
  live ``ya`` row (same bisection sides as ``ndarray.searchsorted``);
* the fused visibility+merge sweep of
  :func:`~repro.envelope.flat_fused.fused_insert_window`, including
  the exact all-hidden / fully-visible fast-path predicates of
  ``_insert_fused_small`` (same margin guards, same short-circuit
  order);
* the in-place window write + single head/tail shift splice of
  :meth:`~repro.envelope.packed.PackedProfile.splice`
  (``_splice_impl`` semantics: shrink shifts the smaller side inward,
  growth prefers the cheaper fitting side, reallocation is signalled
  back to Python — the amortized-doubling grow stays Python-side).

It also holds the front-to-back ordering of
:mod:`repro.ordering.sweep` as two calls over the map lanes of a
terrain's :class:`~repro.terrain.edge_table.EdgeTable`:
``repro_order_constraints`` (the plane sweep of ``order_constraints``,
pair for pair) and ``repro_toposort`` (the heap-driven Kahn sort of
``front_to_back_order``, both tie-breaks).  Both allocate their own
scratch per call and free it before returning.

Bit-exactness contract: every float expression below is a literal
transcription of the pure-Python scalar loop (``_line_z`` endpoint
shortcuts, sign predicates, ``t = du / (du - dv)`` crossing parameter,
part/piece coalescing rules), evaluated in the same order on IEEE
doubles.  ``-ffp-contract=off`` keeps compilers from fusing
``a + b * c`` into an FMA (bit-identical results on x86-64 *and*
aarch64), so the C core, the scalar loop and the numpy kernel all
produce float-for-float identical profiles, visible parts, crossings
and ``ops`` — the property ``tests/test_envelope_ccore.py`` fuzzes.

Buffer ownership: the C side **never allocates profile storage**.  It
mutates the caller's packed buffer in place (under the GIL — cffi API
calls do not release it) and keeps three small static scratch arrays
(merged window, visible parts, crossings) that it reallocates itself;
Python copies results out immediately after each call, so the scratch
is dead between calls.  When the packed buffer cannot absorb a growth
splice the call returns ``GROW`` *without touching the buffer* and the
wrapper commits through :meth:`PackedProfile.splice`, which owns the
amortized-doubling reallocation policy.

The build is optional end to end: ``setup.py`` marks the extension
``optional`` (no compiler → pure-Python/numpy cascade, same results),
and ``REPRO_CCORE_BUILD=0`` skips it entirely.
"""

import cffi

CDEF = """
int repro_fused_insert(
    double *buf, int64_t cap, int64_t *state,
    double y1, double z1, double y2, double z2,
    int64_t src, double eps, int commit, int64_t *out);
double *repro_parts_ptr(void);
double *repro_cross_ptr(void);
double *repro_merged_ptr(int field);
int64_t *repro_merged_src_ptr(void);
int64_t repro_order_constraints(
    const double *x1, const double *y1, const double *x2,
    const double *y2, int64_t n, int64_t *cons);
int64_t repro_toposort(
    int64_t n, const int64_t *cons, int64_t m, int sign, int64_t *order);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Status codes (mirrored in repro/envelope/_ccore.py). */
#define ST_HIDDEN   0  /* no mutation; segment fully hidden          */
#define ST_DONE     1  /* merged window spliced into the buffer      */
#define ST_GROW     2  /* merged window in scratch; caller commits   */
#define ST_FALLBACK 3  /* unsupported window (synthetic source, OOM) */
#define ST_FAULT    5  /* post-condition failed; nothing committed   */

/* out[] layout */
#define O_NPARTS 0
#define O_NCROSS 1
#define O_VISOPS 2
#define O_TOTOPS 3
#define O_SYNCED 4
#define O_LO     5
#define O_HI     6
#define O_MK     7

/* ---- static result scratch (GIL-serialised; Python copies out
 * immediately after each call) -------------------------------------- */
static double *g_mya = NULL, *g_mza = NULL, *g_myb = NULL, *g_mzb = NULL;
static int64_t *g_msrc = NULL;
static double *g_parts = NULL;   /* (ya, yb) pairs */
static double *g_cross = NULL;   /* (w, z) pairs   */
static int64_t g_cap = 0;        /* lanes in every scratch array */

static int ensure_scratch(int64_t win)
{
    /* Bounds per sweep over a k-piece window: merged <= 3k + 3 adds
     * (head + k-1 gaps + 2 per overlap + tail), parts <= 2k + 2
     * pairs, crossings <= k pairs.  One shared lane count covers all
     * three with headroom. */
    int64_t need = 3 * win + 8;
    double *p;
    int64_t *q;
    if (g_cap >= need) return 1;
    need += need / 2;
    p = (double *)realloc(g_mya, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_mya = p;
    p = (double *)realloc(g_mza, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_mza = p;
    p = (double *)realloc(g_myb, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_myb = p;
    p = (double *)realloc(g_mzb, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_mzb = p;
    q = (int64_t *)realloc(g_msrc, (size_t)need * sizeof(int64_t));
    if (!q) return 0;
    g_msrc = q;
    p = (double *)realloc(g_parts, (size_t)(2 * need) * sizeof(double));
    if (!p) return 0;
    g_parts = p;
    p = (double *)realloc(g_cross, (size_t)(2 * need) * sizeof(double));
    if (!p) return 0;
    g_cross = p;
    g_cap = need;
    return 1;
}

double *repro_parts_ptr(void) { return g_parts; }
double *repro_cross_ptr(void) { return g_cross; }
double *repro_merged_ptr(int field)
{
    switch (field) {
    case 0: return g_mya;
    case 1: return g_mza;
    case 2: return g_myb;
    default: return g_mzb;
    }
}
int64_t *repro_merged_src_ptr(void) { return g_msrc; }

/* ---- exact scalar primitives -------------------------------------- */

/* Piece/segment supporting-line height: the float arithmetic of
 * _line_z (endpoint shortcuts, then lerp with t == 0/1 shortcuts). */
static double line_z(double ya, double za, double yb, double zb, double y)
{
    double t;
    if (y == ya) return za;
    if (y == yb) return zb;
    t = (y - ya) / (yb - ya);
    if (t == 0.0) return za;
    if (t == 1.0) return zb;
    return za + (zb - za) * t;
}

/* ndarray.searchsorted side="right": first index with a[i] > x. */
static int64_t upper_bound(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n, mid;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (a[mid] <= x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* ndarray.searchsorted side="left": first index with a[i] >= x. */
static int64_t lower_bound(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n, mid;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* _acc_add: the visibility part accumulator (mutable last-row merge). */
static void acc_add(int64_t *np, double a, double b, double eps)
{
    if (b < a) return;
    if (*np) {
        double *last = g_parts + 2 * (*np - 1);
        if (a <= last[1] + eps) {
            if (b > last[1]) last[1] = b;
            return;
        }
    }
    g_parts[2 * *np] = a;
    g_parts[2 * *np + 1] = b;
    (*np)++;
}

/* add(): merged-piece emission with the real-source coalescing rule
 * of EnvelopeBuilder (same src, contiguous, heights agree within eps). */
static void m_add(int64_t *k, double pya, double pza, double pyb,
                  double pzb, int64_t s, double eps)
{
    if (pya >= pyb) return;
    if (*k && g_msrc[*k - 1] == s && g_myb[*k - 1] == pya
        && fabs(g_mzb[*k - 1] - pza) <= eps) {
        g_myb[*k - 1] = pyb;
        g_mzb[*k - 1] = pzb;
        return;
    }
    g_mya[*k] = pya;
    g_mza[*k] = pza;
    g_myb[*k] = pyb;
    g_mzb[*k] = pzb;
    g_msrc[*k] = s;
    (*k)++;
}

/* One 2D shift over all five rows (the int64-bit-view slice move of
 * _splice_impl, as five memmoves — byte-identical for float lanes). */
static void shift_rows(double *buf, int64_t cap, int64_t from,
                       int64_t to, int64_t count)
{
    int r;
    if (count <= 0 || from == to) return;
    for (r = 0; r < 5; r++) {
        double *row = buf + (int64_t)r * cap;
        memmove(row + to, row + from, (size_t)count * sizeof(double));
    }
}

/* check_merged_lists, pre-commit: sorted, non-overlapping, finite z. */
static int merged_ok(int64_t k)
{
    double prev = -INFINITY;
    int64_t j;
    for (j = 0; j < k; j++) {
        double a = g_mya[j], b = g_myb[j];
        if (!(prev <= a && a <= b)) return 0;
        if (g_mza[j] != g_mza[j] || g_mzb[j] != g_mzb[j]) return 0;
        prev = b;
    }
    return 1;
}

/* ---- the fused insert --------------------------------------------- */

int repro_fused_insert(
    double *buf, int64_t cap, int64_t *state,
    double y1, double z1, double y2, double z2,
    int64_t src, double eps, int commit, int64_t *out)
{
    int64_t beg = state[0], end = state[1];
    int64_t n = end - beg;
    double *rya = buf + beg;
    double *rza = buf + cap + beg;
    double *ryb = buf + 2 * cap + beg;
    double *rzb = buf + 3 * cap + beg;
    int64_t *rsrc = (int64_t *)(buf + 4 * cap) + beg;
    int64_t lo, hi, win, j;
    int64_t np = 0, nc = 0, ko = 0;   /* parts, crossings, merged */
    int64_t vis_ops = 0, merge_ops = 0;
    const double *wya, *wza, *wyb, *wzb;
    const int64_t *wsrc;
    double prev_zs;
    int64_t d, head, tail, a;
    int synced = 0;

    /* locate: pieces_overlapping(y1, y2) on the live ya row. */
    if (n == 0 || y1 >= y2) {
        lo = 0; hi = 0;
    } else {
        lo = upper_bound(rya, n, y1) - 1;
        if (lo < 0 || ryb[lo] <= y1) lo += 1;
        hi = lower_bound(rya, n, y2);
    }
    win = hi - lo;
    out[O_LO] = lo;
    out[O_HI] = hi;
    out[O_SYNCED] = 0;
    out[O_NCROSS] = 0;

    if (!ensure_scratch(win)) return ST_FALLBACK;

    if (win == 0) {
        /* Empty window: one trailing scan interval, one merge
         * interval (the segment verbatim) — unless the span is
         * eps-degenerate, which the scan reports hidden. */
        if (y2 - y1 > eps) {
            g_parts[0] = y1; g_parts[1] = y2;
            g_mya[0] = y1; g_mza[0] = z1;
            g_myb[0] = y2; g_mzb[0] = z2;
            g_msrc[0] = src;
            ko = 1;
            out[O_NPARTS] = 1;
            out[O_VISOPS] = 1;
            out[O_TOTOPS] = 2;
            goto COMMIT;
        }
        out[O_NPARTS] = 0;
        out[O_VISOPS] = 1;
        out[O_TOTOPS] = 1;
        out[O_MK] = 0;
        return ST_HIDDEN;
    }

    wya = rya + lo; wza = rza + lo;
    wyb = ryb + lo; wzb = rzb + lo;
    wsrc = rsrc + lo;

    {
        double za0 = wza[0];
        double top = z1 >= z2 ? z1 : z2;
        if (top < za0) {
            /* All-hidden fast path: gap-free covering window whose
             * lowest endpoint safely clears the segment's top. */
            if (wya[0] <= y1 && wyb[win - 1] >= y2) {
                double minz = za0 <= wzb[0] ? za0 : wzb[0];
                double prev_yb = wyb[0];
                int gap_free = 1;
                for (j = 1; j < win; j++) {
                    if (wya[j] != prev_yb) { gap_free = 0; break; }
                    prev_yb = wyb[j];
                    if (wza[j] < minz) minz = wza[j];
                    if (wzb[j] < minz) minz = wzb[j];
                }
                if (gap_free && minz - top >
                        eps + 1e-12 * (fabs(minz) + fabs(top) + 1.0)) {
                    out[O_NPARTS] = 0;
                    out[O_VISOPS] = win;
                    out[O_TOTOPS] = win;
                    out[O_MK] = 0;
                    return ST_HIDDEN;
                }
            }
        } else {
            /* Fully-visible fast path: the segment's bottom safely
             * clears the window's highest endpoint; merged window =
             * [head clip?] + segment + [tail clip?]. */
            double bot = z1 <= z2 ? z1 : z2;
            if (bot > za0 && y2 - y1 > eps) {
                double maxz = za0 >= wzb[0] ? za0 : wzb[0];
                double prev_yb = wyb[0];
                int64_t gaps = 0;
                for (j = 1; j < win; j++) {
                    if (prev_yb < wya[j]) gaps++;
                    prev_yb = wyb[j];
                    if (wza[j] > maxz) maxz = wza[j];
                    if (wzb[j] > maxz) maxz = wzb[j];
                }
                if (bot - maxz >
                        eps + 1e-12 * (fabs(maxz) + fabs(bot) + 1.0)) {
                    double ya0 = wya[0], yb_l = wyb[win - 1];
                    int64_t fvis = win + gaps + (y1 < ya0) + (y2 > yb_l);
                    int64_t fmerge = win + gaps + (ya0 != y1) + (yb_l != y2);
                    if (ya0 < y1) {
                        g_mya[ko] = ya0; g_mza[ko] = za0;
                        g_myb[ko] = y1;
                        g_mzb[ko] = line_z(ya0, za0, wyb[0], wzb[0], y1);
                        g_msrc[ko] = wsrc[0];
                        ko++;
                    }
                    g_mya[ko] = y1; g_mza[ko] = z1;
                    g_myb[ko] = y2; g_mzb[ko] = z2;
                    g_msrc[ko] = src;
                    ko++;
                    if (yb_l > y2) {
                        g_mya[ko] = y2;
                        g_mza[ko] = line_z(wya[win - 1], wza[win - 1],
                                           yb_l, wzb[win - 1], y2);
                        g_myb[ko] = yb_l; g_mzb[ko] = wzb[win - 1];
                        g_msrc[ko] = wsrc[win - 1];
                        ko++;
                    }
                    g_parts[0] = y1; g_parts[1] = y2;
                    out[O_NPARTS] = 1;
                    out[O_VISOPS] = fvis;
                    out[O_TOTOPS] = fvis + fmerge;
                    goto COMMIT;
                }
            }
        }
    }

    /* Synthetic (negative-source) pieces coalesce on a different
     * builder rule: fall back to the Python cascade (checked after
     * the fast paths, exactly like the scalar loop). */
    for (j = 0; j < win; j++)
        if (wsrc[j] < 0) return ST_FALLBACK;

    /* ---- the fused visibility+merge sweep (fused_insert_window) --- */
    prev_zs = z1;
    for (j = 0; j < win; j++) {
        double pya = wya[j], pza = wza[j];
        double pyb = wyb[j], pzb = wzb[j];
        double u, v, zs_u, zs_v, zw_u, zw_v, du, dv;
        int su, sv;
        if (j == 0) {
            if (y1 < pya) {
                /* Head gap: the segment alone, visible and emitted. */
                zs_u = line_z(y1, z1, y2, z2, pya);
                acc_add(&np, y1, pya, eps);
                m_add(&ko, y1, z1, pya, zs_u, src, eps);
                vis_ops += 1;
                merge_ops += 1;
                u = pya;
            } else {
                if (pya < y1) {
                    /* Window-piece head before y1: merge-only. */
                    m_add(&ko, pya, pza, y1,
                          line_z(pya, pza, pyb, pzb, y1), wsrc[j], eps);
                    merge_ops += 1;
                }
                u = y1;
                zs_u = z1;
            }
        } else {
            double g0 = wyb[j - 1];
            u = pya;
            if (g0 < pya) {
                /* Gap between pieces — always inside (y1, y2). */
                zs_u = line_z(y1, z1, y2, z2, pya);
                acc_add(&np, g0, pya, eps);
                m_add(&ko, g0, prev_zs, pya, zs_u, src, eps);
                vis_ops += 1;
                merge_ops += 1;
            } else {
                zs_u = prev_zs;
            }
        }
        if (pyb < y2) {
            v = pyb;
            zs_v = line_z(y1, z1, y2, z2, pyb);
        } else {
            v = y2;
            zs_v = z2;
        }
        /* Overlap interval (u, v): non-empty by the window invariant. */
        zw_u = u == pya ? pza : line_z(pya, pza, pyb, pzb, u);
        zw_v = v == pyb ? pzb : line_z(pya, pza, pyb, pzb, v);
        du = zs_u - zw_u;
        dv = zs_v - zw_v;
        su = fabs(du) <= eps ? 0 : (du > 0 ? 1 : -1);
        sv = fabs(dv) <= eps ? 0 : (dv > 0 ? 1 : -1);
        vis_ops += 1;
        merge_ops += 1;
        if (su >= 0 && sv >= 0 && (su > 0 || sv > 0)) {
            /* Segment strictly above somewhere, never strictly below. */
            acc_add(&np, u, v, eps);
            m_add(&ko, u, zs_u, v, zs_v, src, eps);
        } else if (su <= 0 && sv <= 0) {
            /* Hidden (or coincident — the window wins ties). */
            m_add(&ko, u, zw_u, v, zw_v, wsrc[j], eps);
        } else {
            double t = du / (du - dv);
            double w = u + t * (v - u);
            if (w <= u || w >= v) {
                /* Numeric clamp: treat as one-sided. */
                double wc;
                if (su < 0 || sv > 0)
                    m_add(&ko, u, zw_u, v, zw_v, wsrc[j], eps);
                else
                    m_add(&ko, u, zs_u, v, zs_v, src, eps);
                wc = w <= u ? u : v;
                if (su > 0)
                    acc_add(&np, u, wc, eps);
                else
                    acc_add(&np, wc, v, eps);
            } else {
                double zw_w = line_z(pya, pza, pyb, pzb, w);
                double zs_w = line_z(y1, z1, y2, z2, w);
                if (su > 0) {
                    acc_add(&np, u, w, eps);
                    m_add(&ko, u, zs_u, w, zs_w, src, eps);
                    m_add(&ko, w, zw_w, v, zw_v, wsrc[j], eps);
                } else {
                    acc_add(&np, w, v, eps);
                    m_add(&ko, u, zw_u, w, zw_w, wsrc[j], eps);
                    m_add(&ko, w, zs_w, v, zs_v, src, eps);
                }
                g_cross[2 * nc] = w;
                g_cross[2 * nc + 1] = zs_w;
                nc++;
            }
        }
        if (j == win - 1) {
            if (v < y2) {
                /* Trailing gap past the last piece. */
                acc_add(&np, v, y2, eps);
                m_add(&ko, v, zs_v, y2, z2, src, eps);
                vis_ops += 1;
                merge_ops += 1;
            } else if (y2 < pyb) {
                /* Window-piece tail past y2: merge-only. */
                m_add(&ko, y2, zw_v, pyb, pzb, wsrc[j], eps);
                merge_ops += 1;
            }
        }
        prev_zs = zs_v;
    }

    /* Width filter (b - a > eps), compacting in place. */
    {
        int64_t kept = 0;
        for (j = 0; j < np; j++) {
            double pa = g_parts[2 * j], pb = g_parts[2 * j + 1];
            if (pb - pa > eps) {
                g_parts[2 * kept] = pa;
                g_parts[2 * kept + 1] = pb;
                kept++;
            }
        }
        np = kept;
    }
    if (vis_ops < 1) vis_ops = 1;
    out[O_NPARTS] = np;
    out[O_NCROSS] = nc;
    out[O_VISOPS] = vis_ops;
    if (np == 0) {
        /* Fully hidden: no splice, no merge ops charged. */
        out[O_TOTOPS] = vis_ops;
        out[O_MK] = 0;
        return ST_HIDDEN;
    }
    out[O_TOTOPS] = vis_ops + merge_ops;

COMMIT:
    out[O_MK] = ko;
    if (!commit) return ST_GROW;
    if (!merged_ok(ko)) return ST_FAULT;

    /* ---- PackedProfile._splice_impl, in C ------------------------- */
    d = ko - (hi - lo);
    if (d) {
        head = lo;
        tail = n - hi;
        if (d < 0) {
            /* Shrink: shift the smaller side inward (always fits). */
            if (head <= tail) {
                shift_rows(buf, cap, beg, beg - d, head);
                beg -= d;
            } else {
                shift_rows(buf, cap, beg + hi, beg + lo + ko, tail);
                end += d;
            }
        } else {
            /* Grow: prefer the cheaper side whose slack fits. */
            int fits_head = beg >= d;
            int fits_tail = cap - end >= d;
            if (fits_head && (head <= tail || !fits_tail)) {
                shift_rows(buf, cap, beg, beg - d, head);
                beg -= d;
            } else if (fits_tail) {
                shift_rows(buf, cap, beg + hi, beg + lo + ko, tail);
                end += d;
            } else {
                /* No slack: the wrapper reallocates via
                 * PackedProfile.splice (amortized doubling). */
                return ST_GROW;
            }
        }
        synced = 1;
    }
    a = beg + lo;
    memcpy(buf + a, g_mya, (size_t)ko * sizeof(double));
    memcpy(buf + cap + a, g_mza, (size_t)ko * sizeof(double));
    memcpy(buf + 2 * cap + a, g_myb, (size_t)ko * sizeof(double));
    memcpy(buf + 3 * cap + a, g_mzb, (size_t)ko * sizeof(double));
    memcpy((int64_t *)(buf + 4 * cap) + a, g_msrc,
           (size_t)ko * sizeof(int64_t));
    state[0] = beg;
    state[1] = end;
    out[O_SYNCED] = synced;
    return ST_DONE;
}

/* ---- front-to-back ordering ----------------------------------------
 *
 * The plane sweep of repro.ordering.sweep.order_constraints and the
 * Kahn sort of front_to_back_order, transcribed literally: the same
 * x_at / lerp endpoint shortcuts, the horizontal-edge max, Python's
 * max/min argument order in in_front_comparison (max(a, b) keeps a
 * unless b > a), the (y, kind, idx) event order, the tie on source
 * (= the edge index), the bisection of locate() and the remove-scan.
 * The constraint list therefore comes out pair for pair, in the same
 * order, as the Python sweep's. */

/* Status codes of repro_order_constraints / repro_toposort (mirrored
 * in repro/envelope/_ccore.py). */
#define ORD_OOM     (-1)  /* scratch allocation failed               */
#define ORD_MISSING (-2)  /* a removal did not find its segment      */

typedef struct {
    const double *x1, *y1, *x2, *y2;
} MapLanes;

/* MapSegment.x_at: horizontal edges answer their larger x; otherwise
 * the endpoint shortcuts and lerp of line_z. */
static double map_x_at(const MapLanes *m, int64_t i, double y)
{
    double a = m->x1[i], b = m->x2[i];
    if (m->y1[i] == m->y2[i]) return a >= b ? a : b;
    return line_z(m->y1[i], a, m->y2[i], b, y);
}

/* in_front_comparison(i, j): +1 when i is in front of j. */
static int in_front(const MapLanes *m, int64_t i, int64_t j)
{
    double lo = m->y1[j] > m->y1[i] ? m->y1[j] : m->y1[i];
    double hi = m->y2[j] < m->y2[i] ? m->y2[j] : m->y2[i];
    double ym, xa, xb;
    if (hi <= lo) return 0;
    ym = 0.5 * (lo + hi);
    xa = map_x_at(m, i, ym);
    xb = map_x_at(m, j, ym);
    if (xa > xb) return 1;
    if (xa < xb) return -1;
    return 0;
}

/* _StatusEntry.__lt__: status entry i sorts before entry j. */
static int status_lt(const MapLanes *m, int64_t i, int64_t j)
{
    int c = in_front(m, i, j);
    if (c != 0) return c < 0;
    return i < j;
}

/* locate(): first status position whose entry does not sort before
 * idx. */
static int64_t status_locate(const MapLanes *m, const int64_t *status,
                             int64_t len, int64_t idx)
{
    int64_t lo = 0, hi = len, mid;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (status_lt(m, status[mid], idx)) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* One sweep event; key = kind * n + idx, so (y, key) orders events
 * as the Python sweep's (y, kind, idx) tuples do. */
typedef struct {
    double y;
    int64_t key;
} SweepEvent;

static int event_cmp(const void *pa, const void *pb)
{
    const SweepEvent *a = (const SweepEvent *)pa;
    const SweepEvent *b = (const SweepEvent *)pb;
    if (a->y < b->y) return -1;
    if (a->y > b->y) return 1;
    return (a->key > b->key) - (a->key < b->key);
}

/* All (front, back) constraints of the sweep, written as int64 pairs
 * into cons (capacity 3n pairs: at most two per insertion and one per
 * removal).  Returns the pair count, or ORD_OOM / ORD_MISSING. */
int64_t repro_order_constraints(
    const double *x1, const double *y1, const double *x2,
    const double *y2, int64_t n, int64_t *cons)
{
    MapLanes m;
    SweepEvent *ev;
    int64_t *status;
    int64_t ne = 0, len = 0, nc = 0, e, i;

    if (n <= 0) return 0;
    m.x1 = x1; m.y1 = y1; m.x2 = x2; m.y2 = y2;
    ev = (SweepEvent *)malloc((size_t)(2 * n) * sizeof(SweepEvent));
    status = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (!ev || !status) {
        free(ev);
        free(status);
        return ORD_OOM;
    }
    /* Kinds at equal y: removals (0) before degenerate horizontals
     * (1) before insertions (2). */
    for (i = 0; i < n; i++) {
        if (y1[i] == y2[i]) {
            ev[ne].y = y1[i]; ev[ne].key = n + i; ne++;
        } else {
            ev[ne].y = y1[i]; ev[ne].key = 2 * n + i; ne++;
            ev[ne].y = y2[i]; ev[ne].key = i; ne++;
        }
    }
    qsort(ev, (size_t)ne, sizeof(SweepEvent), event_cmp);

    for (e = 0; e < ne; e++) {
        int64_t kind = ev[e].key / n, idx = ev[e].key % n;
        int64_t pos = status_locate(&m, status, len, idx), scan;
        if (kind == 0) {
            /* remove(): the comparator can place equal-at-midpoint
             * entries either side; scan for the exact source. */
            scan = pos;
            while (scan < len && status[scan] != idx) scan++;
            if (scan == len) {
                scan = pos - 1;
                while (scan >= 0 && status[scan] != idx) scan--;
            }
            if (scan < 0) {
                free(ev);
                free(status);
                return ORD_MISSING;
            }
            memmove(status + scan, status + scan + 1,
                    (size_t)(len - scan - 1) * sizeof(int64_t));
            len--;
            if (0 < scan && scan < len) {
                /* Newly adjacent pair (left = behind, right = front). */
                cons[2 * nc] = status[scan];
                cons[2 * nc + 1] = status[scan - 1];
                nc++;
            }
            continue;
        }
        memmove(status + pos + 1, status + pos,
                (size_t)(len - pos) * sizeof(int64_t));
        status[pos] = idx;
        len++;
        if (pos > 0) {
            cons[2 * nc] = idx;
            cons[2 * nc + 1] = status[pos - 1];
            nc++;
        }
        if (pos + 1 < len) {
            cons[2 * nc] = status[pos + 1];
            cons[2 * nc + 1] = idx;
            nc++;
        }
        if (kind == 1) {
            /* Degenerate horizontal: insert + record + remove. */
            memmove(status + pos, status + pos + 1,
                    (size_t)(len - pos - 1) * sizeof(int64_t));
            len--;
        }
    }
    free(ev);
    free(status);
    return nc;
}

static void heap_push(int64_t *heap, int64_t *size, int64_t key)
{
    int64_t i = (*size)++, parent;
    while (i > 0) {
        parent = (i - 1) / 2;
        if (heap[parent] <= key) break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = key;
}

static int64_t heap_pop(int64_t *heap, int64_t *size)
{
    int64_t top = heap[0], last = heap[--(*size)], i = 0, child;
    while ((child = 2 * i + 1) < *size) {
        if (child + 1 < *size && heap[child + 1] < heap[child]) child++;
        if (last <= heap[child]) break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

/* Kahn's topological sort of n edges under the m (front, back) pairs
 * in cons: among ready edges the smallest index goes first (sign = 1)
 * or the largest (sign = -1) -- the unique order heapq produces, so
 * duplicate pairs need no dedup (each adds and removes one unit of
 * in-degree at the same step).  Self-pairs are skipped, as in Python.
 * Writes the order and returns its length (< n on a cycle), or
 * ORD_OOM. */
int64_t repro_toposort(
    int64_t n, const int64_t *cons, int64_t m, int sign, int64_t *order)
{
    int64_t *indeg, *start, *succ, *heap;
    int64_t c, i, k = 0, hsize = 0;

    if (n <= 0) return 0;
    indeg = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    start = (int64_t *)calloc((size_t)(n + 1), sizeof(int64_t));
    succ = (int64_t *)malloc((size_t)(m > 0 ? m : 1) * sizeof(int64_t));
    heap = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (!indeg || !start || !succ || !heap) {
        free(indeg); free(start); free(succ); free(heap);
        return ORD_OOM;
    }
    /* Successor lists in CSR form. */
    for (c = 0; c < m; c++) {
        if (cons[2 * c] != cons[2 * c + 1]) start[cons[2 * c] + 1]++;
    }
    for (i = 0; i < n; i++) start[i + 1] += start[i];
    for (c = 0; c < m; c++) {
        int64_t f = cons[2 * c], b = cons[2 * c + 1];
        if (f == b) continue;
        succ[start[f] + indeg[f]] = b;  /* indeg[f] as a fill cursor */
        indeg[f]++;
    }
    memset(indeg, 0, (size_t)n * sizeof(int64_t));
    for (c = 0; c < start[n]; c++) indeg[succ[c]]++;

    for (i = 0; i < n; i++) {
        if (indeg[i] == 0) heap_push(heap, &hsize, sign * i);
    }
    while (hsize) {
        int64_t v = sign * heap_pop(heap, &hsize), s;
        order[k++] = v;
        for (s = start[v]; s < start[v + 1]; s++) {
            if (--indeg[succ[s]] == 0) heap_push(heap, &hsize, sign * succ[s]);
        }
    }
    free(indeg); free(start); free(succ); free(heap);
    return k;
}
"""

ffibuilder = cffi.FFI()
ffibuilder.cdef(CDEF)
ffibuilder.set_source(
    "repro.envelope._repro_ccore",
    C_SOURCE,
    extra_compile_args=["-O2", "-ffp-contract=off"],
)


if __name__ == "__main__":
    import os

    # In-place build: drop the extension next to this file so the
    # PYTHONPATH=src layout imports it without an install step.
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    ffibuilder.compile(tmpdir=src_dir, verbose=True)
