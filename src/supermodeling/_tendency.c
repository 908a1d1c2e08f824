/* The stages of the tumor tendency as loops over the cells of a grid.

   tumor.py builds this file into a shared library and calls each stage
   through ctypes; it is the only code of the tendency.  The tests hold it
   to a NumPy formula, reference_tendency in tests/test_kernel.py: every
   cell goes through the operations of that formula in the same order, in
   double precision, so the results are the same bits.  That takes a build without
   -ffast-math and with -ffp-contract=off, so that nothing is reordered,
   fused or re-rounded.

   Fields are C-contiguous (nz, ny, nx) blocks of doubles, x fastest, with
   at least 3 cells per axis; the caller checks both.  Two cells are done
   at a time with GCC's generic vectors, which apply the same IEEE
   operation to each lane; a lone cell goes through the same code with both
   lanes holding it. */

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
    const double *b, *A, *potential;
    double *jx, *jy, *jz;
    double b_norm, b_M, neg_d_b, r_b;
    row r;
} flux_args;

INLINE void flux_cells(const flux_args *f, long i, int lanes, long xu, long xd, scaling sx)
{
    const row *r = &f->r;
    const double *n = f->potential, *A = f->A;
    v2 b = load(f->b + i, lanes);
    v2 gate = indicator((m2)(b >= splat(f->b_norm)) & (m2)(b <= splat(f->b_M)));
    v2 coeff = b * splat(f->neg_d_b);
    v2 r_b = splat(f->r_b);
    v2 gn, ga;

    gn = scale(load(n + i + xu, lanes) - load(n + i + xd, lanes), sx);
    ga = scale(load(A + i + xu, lanes) - load(A + i + xd, lanes), sx);
    store(f->jx + i, coeff * (gn * gate + ga * r_b), lanes);
    gn = scale(load(n + i + r->yu, lanes) - load(n + i + r->yd, lanes), r->sy);
    ga = scale(load(A + i + r->yu, lanes) - load(A + i + r->yd, lanes), r->sy);
    store(f->jy + i, coeff * (gn * gate + ga * r_b), lanes);
    gn = scale(load(n + i + r->zu, lanes) - load(n + i + r->zd, lanes), r->sz);
    ga = scale(load(A + i + r->zu, lanes) - load(A + i + r->zd, lanes), r->sz);
    store(f->jz + i, coeff * (gn * gate + ga * r_b), lanes);
}

INLINE void potential_cells(double *n, const double *b, long i, int lanes, double b_norm,
                            scaling norm)
{
    store(n + i, scale(load(b + i, lanes) - splat(b_norm), norm), lanes);
}

/* ``potential`` receives (b - b_norm) / (b_M - b_norm) and ``out`` holds
   Jx, Jy and Jz one after the other */
void flux(long nz, long ny, long nx, const double *restrict b, const double *restrict A,
          double *restrict potential, double *restrict out, double b_norm, double b_M,
          double neg_d_b, double r_b, double norm_by, int norm_multiply, double centred_by,
          int centred_multiply, double edge_by, int edge_multiply)
{
    long cells = nz * ny * nx, i, z, y;
    scaling norm = {norm_by, norm_multiply};
    scaling centred = {centred_by, centred_multiply}, edge = {edge_by, edge_multiply};
    flux_args f = {b, A, potential, out, out + cells, out + 2 * cells,
                   b_norm, b_M, neg_d_b, r_b, {0}};

    for (i = 0; i + 2 <= cells; i += 2)
        potential_cells(potential, b, i, 2, b_norm, norm);
    if (i < cells)
        potential_cells(potential, b, i, 1, b_norm, norm);
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
   values and lap A, and receives db, dc, do, dM and dA in their place.
   ``mask`` is NULL for delivery everywhere. */
void reaction(long cells, const double *restrict state, const double *restrict mask,
              double *restrict out, double o_death, double o_prol, double tau_b, double P_b,
              double T_death, double T_prol, double b_M_by, int b_M_multiply, double chi_c,
              double gamma_c, double alpha_o, double gamma_o, double delta_o, double o_max,
              double neg_beta_M, double gamma_A, double chi_aA, double gamma_oA)
{
    const double *b = state, *c = state + cells, *o = state + 2 * cells,
                 *M = state + 3 * cells, *A = state + 4 * cells;
    double *db = out, *dc = out + cells, *dox = out + 2 * cells, *dM = out + 3 * cells,
           *dA = out + 4 * cells;
    coefficients p = {o_death, o_prol, tau_b, P_b, T_death, T_prol, chi_c, gamma_c, alpha_o,
                      gamma_o, delta_o, o_max, neg_beta_M, gamma_A, chi_aA, gamma_oA,
                      {b_M_by, b_M_multiply}};
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
