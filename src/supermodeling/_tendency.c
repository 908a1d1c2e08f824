/* The tumor tendency as loops over the cells of a grid, the forward-Euler
   pass that every member step ends with, and the elementwise passes of the
   caller's serial phase in a training step: the rows of the coupling
   update and the member average.

   _kernel.py builds this file into a shared library, which tumor.py,
   dynamics.py and engine.py call through ctypes; it is the only code of
   the tendency, of the Euler step, of the coupling update's rows and of
   the average.  The tests hold it to NumPy formulas: every cell goes
   through the operations of reference_tendency in tests/test_kernel.py,
   every value through those of state + tend * dt, and the rows and the
   average through those of the NumPy bodies in tests/test_serial_phase.py,
   in the same order, in double precision, so the results are the same
   bits.  That takes a build without -ffast-math and with
   -ffp-contract=off, so that nothing is reordered, fused or re-rounded.
   Only a NaN's sign and payload may differ where two NaNs meet in an
   addition: x86 returns the first operand's, and a compiler may swap the
   operands of an addition.  The matrix products and the sums over cells
   stay in NumPy and BLAS, whose order of summation a loop here would not
   reproduce.

   Fields are C-contiguous (nz, ny, nx) blocks of doubles, x fastest, with
   at least 3 cells per axis; the caller checks both.  Two cells are done
   at a time with GCC's generic vectors, which apply the same IEEE
   operation to each lane; a lone cell goes through the same code with both
   lanes holding it.

   tendency, one call per tendency, runs the four stages in turn on one
   output array shaped like the state, and needs no other: flux writes J
   into slots 1 to 3, divergence reads it there and writes div J into
   slot 0, and the Laplacians of c, o and A replace J in slots 1, 2 and 4.
   reaction then turns slots 0, 1, 2 and 4 into the tendency and writes
   slot 3, which still holds Jz, without reading it.  flux, divergence and
   laplacian are exported too, so tumor.py can run and the tests can check
   each of them alone. */

#include <string.h>

typedef double v2 __attribute__((vector_size(16)));
typedef long long m2 __attribute__((vector_size(16)));

#define INLINE static inline __attribute__((always_inline))

/* lanes is 2 or 1, a constant once inlined */
INLINE v2 load(const double *p, int lanes)
{
    v2 v;
    if (lanes == 2)
        memcpy(&v, p, sizeof v);
    else
        v = (v2){p[0], p[0]};
    return v;
}

INLINE void store(double *p, v2 v, int lanes)
{
    if (lanes == 2)
        memcpy(p, &v, sizeof v);
    else
        p[0] = v[0];
}

INLINE v2 splat(double x) { return (v2){x, x}; }

/* 1.0 in the lanes where a comparison holds, 0.0 elsewhere */
INLINE v2 indicator(m2 holds)
{
    const long long one = 0x3ff0000000000000LL; /* the bits of 1.0 */
    return (v2)(holds & (m2){one, one});
}

/* x / d as tumor._scaling decides: x * by when d is a power of two and
   by = 1 / d (exact, so the same bits), x / by with by = d otherwise */
typedef struct {
    double by;
    int multiply;
} scaling;

INLINE v2 scale(v2 x, scaling s)
{
    return s.multiply ? x * splat(s.by) : x / splat(s.by);
}

/* The coefficients of a tendency: one array of doubles, indexed by this
   enum, that tumor._coefficients builds once per parameter set and spacing.
   A scaling takes two entries, ``by`` and then ``multiply`` (1.0 or 0.0). */
enum {
    /* flux: the density levels, -d_b and r_b, then the scalings of
       b_M - b_norm, of 2h (centred differences) and of h (one-sided) */
    B_NORM, B_MAX, NEG_D_B, R_B, NORM, NORM_MULTIPLY, CENTRED, CENTRED_MULTIPLY, EDGE,
    EDGE_MULTIPLY,
    /* the Laplacians: the scaling of h^2 */
    HH, HH_MULTIPLY,
    /* reaction: the scaling of b_M, then the rates in the order of the terms */
    B_M_SCALING, B_M_MULTIPLY, O_DEATH, O_PROL, TAU_B, P_B, T_DEATH, T_PROL, CHI_C, GAMMA_C,
    ALPHA_O, GAMMA_O, DELTA_O, O_MAX, NEG_BETA_M, GAMMA_A, CHI_AA, GAMMA_OA
};

INLINE scaling scaling_at(const double *k, int at)
{
    scaling s = {k[at], k[at + 1] != 0.0};
    return s;
}

/* The neighbours a stencil reads along y and z for one row of cells, as
   offsets in cells: for a one-sided difference at a wall, or a mirrored
   neighbour, one of the two is the row itself. */
typedef struct {
    long yu, yd, zu, zd;
    scaling sy, sz;
} row;

/* Row y of plane z: ``edge`` picks the one-sided differences of a gradient
   at the walls (scaled by h, and by 2h inside); both are the mirrored
   neighbours of a Laplacian. */
INLINE row row_at(long z, long y, long nz, long ny, long nx, scaling centred, scaling edge)
{
    long plane = ny * nx;
    row r;
    r.yu = y < ny - 1 ? nx : 0;
    r.yd = y > 0 ? -nx : 0;
    r.zu = z < nz - 1 ? plane : 0;
    r.zd = z > 0 ? -plane : 0;
    r.sy = (y == 0 || y == ny - 1) ? edge : centred;
    r.sz = (z == 0 || z == nz - 1) ? edge : centred;
    return r;
}

/* Runs CELLS(i, lanes, xu, xd, sx) over row ``start`` (nx cells): x-offsets
   of the neighbours and the x-scaling are one-sided at the two walls. */
#define FOR_ROW(start, nx, centred, edge, CELLS)                   \
    do {                                                           \
        long i_ = (start), end_ = (start) + (nx) - 1, x_;          \
        CELLS(i_, 1, 1, 0, (edge));                                \
        for (x_ = i_ + 1; x_ + 2 <= end_; x_ += 2)                 \
            CELLS(x_, 2, 1, -1, (centred));                        \
        if (x_ < end_)                                             \
            CELLS(x_, 1, 1, -1, (centred));                        \
        CELLS(end_, 1, 0, -1, (edge));                             \
    } while (0)

/* -- flux: J = -d_b b (grad(normalized b) gate + r_b grad A) ---------------- */

typedef struct {
    const double *b, *A;
    double *jx, *jy, *jz;
    double b_norm, b_M, neg_d_b, r_b;
    scaling norm;
    row r;
} flux_args;

/* (b - b_norm) / (b_M - b_norm) at cell i, the normalized density whose
   gradient the pressure part takes */
INLINE v2 normalized(const flux_args *f, long i, int lanes)
{
    return scale(load(f->b + i, lanes) - splat(f->b_norm), f->norm);
}

INLINE void flux_cells(const flux_args *f, long i, int lanes, long xu, long xd, scaling sx)
{
    const row *r = &f->r;
    const double *A = f->A;
    v2 b = load(f->b + i, lanes);
    v2 gate = indicator((m2)(b >= splat(f->b_norm)) & (m2)(b <= splat(f->b_M)));
    v2 coeff = b * splat(f->neg_d_b);
    v2 r_b = splat(f->r_b);
    v2 gn, ga;

    gn = scale(normalized(f, i + xu, lanes) - normalized(f, i + xd, lanes), sx);
    ga = scale(load(A + i + xu, lanes) - load(A + i + xd, lanes), sx);
    store(f->jx + i, coeff * (gn * gate + ga * r_b), lanes);
    gn = scale(normalized(f, i + r->yu, lanes) - normalized(f, i + r->yd, lanes), r->sy);
    ga = scale(load(A + i + r->yu, lanes) - load(A + i + r->yd, lanes), r->sy);
    store(f->jy + i, coeff * (gn * gate + ga * r_b), lanes);
    gn = scale(normalized(f, i + r->zu, lanes) - normalized(f, i + r->zd, lanes), r->sz);
    ga = scale(load(A + i + r->zu, lanes) - load(A + i + r->zd, lanes), r->sz);
    store(f->jz + i, coeff * (gn * gate + ga * r_b), lanes);
}

/* ``out`` receives Jx, Jy and Jz one after the other.  The normalized
   density is computed from b at each neighbour a gradient reads, with the
   reference formula's operations, so no array holds it.  ``k`` holds the
   coefficients (see the enum above). */
void flux(long nz, long ny, long nx, const double *restrict b, const double *restrict A,
          double *restrict out, const double *restrict k)
{
    long cells = nz * ny * nx, z, y;
    scaling centred = scaling_at(k, CENTRED), edge = scaling_at(k, EDGE);
    flux_args f = {b, A, out, out + cells, out + 2 * cells, k[B_NORM], k[B_MAX], k[NEG_D_B],
                   k[R_B], scaling_at(k, NORM), {0}};

#define FLUX_CELLS(i, lanes, xu, xd, sx) flux_cells(&f, i, lanes, xu, xd, sx)
    for (z = 0; z < nz; z++)
        for (y = 0; y < ny; y++) {
            f.r = row_at(z, y, nz, ny, nx, centred, edge);
            FOR_ROW((z * ny + y) * nx, nx, centred, edge, FLUX_CELLS);
        }
#undef FLUX_CELLS
}

/* -- divergence: dJx/dx + dJy/dy + dJz/dz --------------------------------- */

INLINE void divergence_cells(const double *jx, const double *jy, const double *jz, double *out,
                             const row *r, long i, int lanes, long xu, long xd, scaling sx)
{
    v2 dx = scale(load(jx + i + xu, lanes) - load(jx + i + xd, lanes), sx);
    v2 dy = scale(load(jy + i + r->yu, lanes) - load(jy + i + r->yd, lanes), r->sy);
    v2 dz = scale(load(jz + i + r->zu, lanes) - load(jz + i + r->zd, lanes), r->sz);
    store(out + i, dx + dy + dz, lanes);
}

/* ``flux`` holds Jx, Jy and Jz one after the other */
void divergence(long nz, long ny, long nx, const double *restrict flux, double *restrict out,
                double centred_by, int centred_multiply, double edge_by, int edge_multiply)
{
    long cells = nz * ny * nx, z, y;
    const double *jx = flux, *jy = flux + cells, *jz = flux + 2 * cells;
    scaling centred = {centred_by, centred_multiply}, edge = {edge_by, edge_multiply};
    row r;

#define DIVERGENCE_CELLS(i, lanes, xu, xd, sx) \
    divergence_cells(jx, jy, jz, out, &r, i, lanes, xu, xd, sx)
    for (z = 0; z < nz; z++)
        for (y = 0; y < ny; y++) {
            r = row_at(z, y, nz, ny, nx, centred, edge);
            FOR_ROW((z * ny + y) * nx, nx, centred, edge, DIVERGENCE_CELLS);
        }
#undef DIVERGENCE_CELLS
}

/* -- Laplacian with mirrored (zero-flux) walls ----------------------------- */

INLINE void laplacian_cells(const double *f, double *out, const row *r, long i, int lanes,
                            long xu, long xd, scaling hh)
{
    v2 sum = load(f + i + r->zu, lanes) + load(f + i + r->zd, lanes);
    sum += load(f + i + r->yu, lanes);
    sum += load(f + i + r->yd, lanes);
    sum += load(f + i + xu, lanes);
    sum += load(f + i + xd, lanes);
    store(out + i, scale(sum - load(f + i, lanes) * splat(6.0), hh), lanes);
}

/* ``fields`` fields one after the other in ``data`` and in ``out`` */
void laplacian(long fields, long nz, long ny, long nx, const double *restrict data,
               double *restrict out, double hh_by, int hh_multiply)
{
    long cells = nz * ny * nx, k, z, y;
    scaling hh = {hh_by, hh_multiply};
    row r;

    for (k = 0; k < fields; k++) {
        const double *f = data + k * cells;
        double *o = out + k * cells;
        /* a mirrored neighbour is the cell itself, so both scalings are the
           same; the x-offsets of FOR_ROW are a mirror's at the walls */
#define LAPLACIAN_CELLS(i, lanes, xu, xd, sx) laplacian_cells(f, o, &r, i, lanes, xu, xd, sx)
        for (z = 0; z < nz; z++)
            for (y = 0; y < ny; y++) {
                r = row_at(z, y, nz, ny, nx, hh, hh);
                FOR_ROW((z * ny + y) * nx, nx, hh, hh, LAPLACIAN_CELLS);
            }
#undef LAPLACIAN_CELLS
    }
}

/* -- reaction terms --------------------------------------------------------- */

typedef struct {
    double o_death, o_prol, tau_b, P_b, T_death, T_prol, chi_c, gamma_c, alpha_o, gamma_o,
        delta_o, o_max, neg_beta_M, gamma_A, chi_aA, gamma_oA;
    scaling b_M;
} coefficients;

INLINE void db_cells(const coefficients *p, const double *b, const double *o, const double *A,
                     double *db, long i, int lanes)
{
    v2 bb = load(b + i, lanes), oo = load(o + i, lanes);
    v2 hypoxic = indicator((m2)(oo < splat(p->o_death)));
    v2 proliferative = indicator((m2)(oo > splat(p->o_prol)));
    v2 bound = load(A + i, lanes) * splat(p->tau_b);
    v2 boost = bound / (bound + splat(1.0)) * splat(p->P_b) + splat(1.0);
    v2 death = bb / splat(p->T_death) * hypoxic;
    v2 growth = bb / splat(p->T_prol) * boost * (splat(1.0) - scale(bb, p->b_M)) * proliferative;
    store(db + i, -load(db + i, lanes) - death + growth, lanes);
}

INLINE void dc_cells(const coefficients *p, const double *b, const double *c, const double *o,
                     double *dc, long i, int lanes)
{
    v2 bb = load(b + i, lanes), cc = load(c + i, lanes), oo = load(o + i, lanes);
    v2 hypoxic = indicator((m2)(oo < splat(p->o_death)));
    store(dc + i, load(dc + i, lanes) * splat(p->chi_c) - oo * splat(p->gamma_c) * cc
                      + bb * (splat(1.0) - cc) * hypoxic, lanes);
}

INLINE void do_cells(const coefficients *p, const double *b, const double *o,
                     const double *mask, double *dox, long i, int lanes)
{
    v2 bb = load(b + i, lanes), oo = load(o + i, lanes);
    v2 delivery = (splat(p->o_max) - oo) * splat(p->delta_o);
    if (mask)
        delivery *= load(mask + i, lanes);
    store(dox + i, load(dox + i, lanes) * splat(p->alpha_o) - bb * splat(p->gamma_o) * oo
                       + delivery, lanes);
}

INLINE void dM_dA_cells(const coefficients *p, const double *b, const double *M,
                        const double *A, double *dM, double *dA, long i, int lanes)
{
    v2 bb = load(b + i, lanes), mm = load(M + i, lanes);
    store(dM + i, mm * splat(p->neg_beta_M) * bb, lanes);
    store(dA + i, load(dA + i, lanes) * splat(p->chi_aA) + mm * splat(p->gamma_A) * bb
                      - load(A + i, lanes) * splat(p->gamma_oA), lanes);
}

/* Cells per block of the reaction pass.  Each term runs over a block on its
   own, so a loop streams at most five arrays, and the block's share of b
   and o stays in cache for the next term.  On a 64^3 grid every field is
   2 MiB, so all of them fall on the same cache sets; a loop over all ten
   at once evicts its own lines. */
#define BLOCK 512

#define FOR_BLOCK(lo, hi, CELLS)                  \
    do {                                          \
        long i_;                                  \
        for (i_ = (lo); i_ + 2 <= (hi); i_ += 2)  \
            CELLS(i_, 2);                         \
        if (i_ < (hi))                            \
            CELLS(i_, 1);                         \
    } while (0)

/* ``state`` holds b, c, o, M and A; ``out`` holds div J, lap c, lap o, any
   values (Jz, in a tendency) and lap A, and receives db, dc, do, dM and dA
   in their place.
   ``mask`` is NULL for delivery everywhere; ``k`` holds the coefficients. */
static void reaction(long cells, const double *restrict state, const double *restrict mask,
                     double *restrict out, const double *restrict k)
{
    const double *b = state, *c = state + cells, *o = state + 2 * cells,
                 *M = state + 3 * cells, *A = state + 4 * cells;
    double *db = out, *dc = out + cells, *dox = out + 2 * cells, *dM = out + 3 * cells,
           *dA = out + 4 * cells;
    coefficients p = {k[O_DEATH], k[O_PROL], k[TAU_B], k[P_B], k[T_DEATH], k[T_PROL],
                      k[CHI_C], k[GAMMA_C], k[ALPHA_O], k[GAMMA_O], k[DELTA_O], k[O_MAX],
                      k[NEG_BETA_M], k[GAMMA_A], k[CHI_AA], k[GAMMA_OA],
                      scaling_at(k, B_M_SCALING)};
    long lo, hi;

#define DB(i, lanes) db_cells(&p, b, o, A, db, i, lanes)
#define DC(i, lanes) dc_cells(&p, b, c, o, dc, i, lanes)
#define DO(i, lanes) do_cells(&p, b, o, mask, dox, i, lanes)
#define DM_DA(i, lanes) dM_dA_cells(&p, b, M, A, dM, dA, i, lanes)
    for (lo = 0; lo < cells; lo = hi) {
        hi = lo + BLOCK < cells ? lo + BLOCK : cells;
        FOR_BLOCK(lo, hi, DB);
        FOR_BLOCK(lo, hi, DC);
        FOR_BLOCK(lo, hi, DO);
        FOR_BLOCK(lo, hi, DM_DA);
    }
#undef DB
#undef DC
#undef DO
#undef DM_DA
}

/* -- the tendency ------------------------------------------------------------ */

/* The tendency of ``state`` (b, c, o, M and A) into ``out``, shaped like it:
   the four stages in turn on one output array (see the top of this file).
   ``mask`` is NULL for delivery everywhere; ``k`` holds the coefficients.
   ``out`` shares no memory with ``state`` or ``mask``. */
void tendency(long nz, long ny, long nx, const double *state, const double *mask, double *out,
              const double *k)
{
    long cells = nz * ny * nx;

    flux(nz, ny, nx, state, state + 4 * cells, out + cells, k);
    divergence(nz, ny, nx, out + cells, out, k[CENTRED], k[CENTRED_MULTIPLY] != 0.0, k[EDGE],
               k[EDGE_MULTIPLY] != 0.0);
    laplacian(2, nz, ny, nx, state + cells, out + cells, k[HH], k[HH_MULTIPLY] != 0.0);
    laplacian(1, nz, ny, nx, state + 4 * cells, out + 4 * cells, k[HH], k[HH_MULTIPLY] != 0.0);
    reaction(cells, state, mask, out, k);
}

/* -- forward Euler with the coupling correction ------------------------------ */

/* s = state + tend * dt with NumPy's roundings, t = tend * dt and then
   state + t, followed by s + correction when ``correction`` is given, stored
   back into ``state``.  Marks ``bad`` in the lanes where s is not finite:
   s - s is NaN exactly there. */
INLINE void euler_cells(double *state, const double *tend, const double *correction,
                        double dt, m2 *bad, long i, int lanes)
{
    v2 s = load(state + i, lanes) + load(tend + i, lanes) * splat(dt);
    v2 d;
    if (correction)
        s += load(correction + i, lanes);
    d = s - s;
    *bad |= (m2)(d != d);
    store(state + i, s, lanes);
}

/* ``state`` advances in place to state + tend * dt for ``cells`` values, the
   first ``corrected`` of which (the first field) also add ``correction``,
   which may be NULL when ``corrected`` is 0.  One pass over the arrays;
   returns 1 when every value stored is finite and 0 otherwise.  ``state``
   shares no memory with ``tend`` or ``correction``. */
int euler(long cells, long corrected, double *restrict state, const double *restrict tend,
          const double *restrict correction, double dt)
{
    m2 bad = {0, 0};

#define CORRECTED(i, lanes) euler_cells(state, tend, correction, dt, &bad, i, lanes)
#define FREE(i, lanes) euler_cells(state, tend, NULL, dt, &bad, i, lanes)
    FOR_BLOCK(0, corrected, CORRECTED);
    FOR_BLOCK(corrected, cells, FREE);
#undef CORRECTED
#undef FREE
    return !(bad[0] | bad[1]);
}

/* -- the caller's serial phase: the coupling update's rows and the average --- */

/* ``states`` holds n members, each ``stride`` doubles long; member k's
   values of a variable are ``cells`` doubles from states + k * stride.
   Both passes run over BLOCK cells at a time, one member row at a time:
   the rows lie a field apart and fall on the same cache sets, so a loop
   over every member's row at once evicts its own lines. */

/* The member mean of ``len`` cells from ``b`` into ``mean``, as NumPy's
   mean over the members: an add.reduce that starts from 0.0 and adds the
   members in turn (so -0.0 members give +0.0), then a division by n. */
static void block_mean(long n, long stride, long len, const double *restrict b,
                       double *restrict mean)
{
    long k;

#define FIRST(i, lanes) store(mean + i, splat(0.0) + load(b + i, lanes), lanes)
#define ADD(i, lanes) \
    store(mean + i, load(mean + i, lanes) + load(b + k * stride + i, lanes), lanes)
#define DIVIDE(i, lanes) store(mean + i, load(mean + i, lanes) / splat((double)n), lanes)
    FOR_BLOCK(0, len, FIRST);
    for (k = 1; k < n; k++)
        FOR_BLOCK(0, len, ADD);
    FOR_BLOCK(0, len, DIVIDE);
#undef FIRST
#undef ADD
#undef DIVIDE
}

/* The sum of the n values a[0], a[stride], ... in the order of NumPy's
   pairwise sum: eight running sums over blocks of up to 128 values, which
   halve above that.  NumPy's mean over the members sums them
   so when a variable has one value, and the members' values are then the
   one run its reduction loops over. */
static double pairwise(long n, long stride, const double *a)
{
    double r[8], sum = 0.0;
    long i, j;

    if (n < 8) {
        for (i = 0; i < n; i++)
            sum += a[i * stride];
        return sum;
    }
    if (n > 128) {
        long half = n / 2 - n / 2 % 8;
        return pairwise(half, stride, a) + pairwise(n - half, stride, a + half * stride);
    }
    for (j = 0; j < 8; j++)
        r[j] = a[j * stride];
    for (i = 8; i < n - n % 8; i += 8)
        for (j = 0; j < 8; j++)
            r[j] += a[(i + j) * stride];
    sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        sum += a[i * stride];
    return sum;
}

/* The rows of the coupling update, into ``work`` (2n rows of ``cells``):
   row k is gt - B_k and row n + k is B_k - mean, the member's mismatch and
   its deviation from the member mean.  ``gt`` holds ``cells`` values; the
   members' first ``cells`` values are the coupled variable.  ``work``
   shares no memory with ``states`` or ``gt``. */
void mismatch(long n, long stride, long cells, const double *restrict states,
              const double *restrict gt, double *restrict work)
{
    double mean[BLOCK];
    long lo, len, k;

    for (lo = 0; lo < cells; lo += len) {
        len = cells - lo < BLOCK ? cells - lo : BLOCK;
        if (cells == 1)
            mean[0] = (0.0 + pairwise(n, stride, states)) / (double)n;
        else
            block_mean(n, stride, len, states + lo, mean);
        for (k = 0; k < n; k++) {
            const double *b = states + k * stride + lo, *g = gt + lo;
            double *miss = work + k * cells + lo, *dev = work + (n + k) * cells + lo;
#define ROWS(i, lanes)                                                   \
    do {                                                                 \
        v2 b_ = load(b + i, lanes);                                      \
        store(miss + i, load(g + i, lanes) - b_, lanes);                 \
        store(dev + i, b_ - load(mean + i, lanes), lanes);               \
    } while (0)
            FOR_BLOCK(0, len, ROWS);
#undef ROWS
        }
    }
}

/* The member average of the variable ``offset`` doubles into each member,
   into ``out`` (``cells`` values), as base + (sum over k >= 1 of
   (B_k - base)) * (1 / n) with base = B_0, summed in member order: n
   identical members give their value exactly.  One member is copied.
   ``out`` shares no memory with ``states``. */
void average(long n, long stride, long offset, long cells, const double *restrict states,
             double *restrict out)
{
    const double *base = states + offset;
    double by = 1.0 / (double)n;
    long lo, len, k;

    if (n == 1) {
        memcpy(out, base, cells * sizeof *out);
        return;
    }
    for (lo = 0; lo < cells; lo += len) {
        const double *b0 = base + lo;
        double *o = out + lo;
        len = cells - lo < BLOCK ? cells - lo : BLOCK;
#define FIRST(i, lanes) store(o + i, load(b0 + stride + i, lanes) - load(b0 + i, lanes), lanes)
#define ADD(i, lanes)                                                                \
    store(o + i, load(o + i, lanes) + (load(b0 + k * stride + i, lanes) - load(b0 + i, lanes)), \
          lanes)
#define SCALE(i, lanes) store(o + i, load(o + i, lanes) * splat(by) + load(b0 + i, lanes), lanes)
        FOR_BLOCK(0, len, FIRST);
        for (k = 2; k < n; k++)
            FOR_BLOCK(0, len, ADD);
        FOR_BLOCK(0, len, SCALE);
#undef FIRST
#undef ADD
#undef SCALE
    }
}
