/*
 * Compiled growth core: the arena, the splitmix64 PRNG, the step loop, the
 * lex ordering of marked edges and one walk loop for the shape, the paren
 * text and the height, in plain C with no Python headers.
 * `_growth_c.py` loads it with ctypes and wraps it in the GrowthKernel API;
 * every other view of the tree is rendered in Python from the shape.  The
 * behaviour contract (draw order, arena layout, allocation order, counters)
 * is documented in `_growth_py.py`, the readable spec; the two kernels must
 * stay observably identical.
 *
 * The lex phase orders a step's marked edges by root word, and it is the
 * only per-step cost that is not O(d).  It never builds a word.  At d >= 3
 * every internal node keeps a jump to its J-th ancestor, so an edge's depth
 * costs 1/J of its parent steps (two edges walk side by side), and two
 * edges compare by climbing in lockstep to where their paths part, whose
 * two links decide.  A merge sort orders the edges, and the letters the
 * spec's insertion sort compares are replayed from the common prefixes of
 * neighbours in the result.
 *
 * A node less than J deep has no J-th ancestor yet.  Its jump holds the
 * jump index its J-th ancestor will have, n + J - depth: the root added
 * J - depth steps from now.  A step hangs the old tree one level lower
 * under a new root, so n and the depth of every node it keeps grow by one
 * and the value stays right; once such a node is J deep, the value is n,
 * the root's jump index, its J-th ancestor.  A jump is therefore a real
 * ancestor exactly when it is at most n, and a shallower node's depth is
 * n + J - jump.  A step writes only the new root and, in each cut subtree,
 * the internal nodes at most J deep under the new root; below that their
 * J nearest ancestors are in the subtree, which the step kept whole.  The
 * old tree is never visited.
 *
 * Short chains skip even that.  While n <= J no internal node is J deep (a
 * node's depth is below the count of internal nodes), so every jump written
 * at a new root, n + J then, is above n, and none is read as an ancestor.
 * Those steps write only the new root, and depths are climbed by parent
 * steps; the step to n = J + 1 writes every jump in one walk of the tree.
 *
 * At d = 2 a step is one random link read and one dependent child write,
 * so the loop is software-pipelined: steps are drawn 16 ahead and their
 * arena lines prefetched (steps_d2).  This cannot be observed.  A step's
 * ranks and letter depend only on the PRNG state and n, never on the tree,
 * so drawing early gives the same draws in the same order; no draw is made
 * past the last step of a call, and every step is applied exactly as
 * before.  d >= 3 is not pipelined: there the lex phase's climbs already
 * keep the memory system busy, and prefetching only moved its stalls.
 *
 * The arena is compact: a tree of n internal nodes has ids 0 .. d*n, so a
 * step's d new ids are d*n + 1 .. d*n + d and apply hands them out by
 * counting, with no allocator and no live-node count.  The internal nodes
 * are the steps' new roots d, 2d, .., d*n; only they have a child row, u's
 * at child[u - d .. u), and u is a leaf when u % d != 0 or u == 0.  So one
 * number per node places it: its link up[u], the index of the child entry
 * that holds it (-1 at the root).  Its parent is that row's owner,
 * (up[u] / d + 1) * d, its slot up[u] % d + 1, and two siblings order by
 * their links.  The jumps are kept per internal node, 4 bytes each, at
 * index u / d.
 *
 * The shape (1 or 0 per node), the paren text ("(" or "o" per node, ")"
 * where a subtree ends) and the height are one preorder loop over a stack
 * of node ids, on the calling thread.  The paren and height modes push a -1
 * below each internal node's children; popping it ends the subtree.  There
 * is no second end walking the mirror image from the last byte: it saved
 * 0.3-1.4 ms of a 21-27 ms shape walk at d = 2, n = 10^6, and cost 11-16%
 * of the shape walk at d = 3, 5 and 12.
 *
 * A histogram is binned here too.  Each chain's shape is walked into the
 * next free place of a store of distinct shapes and looked up in a hash
 * table over them, equal hashes confirmed byte for byte, so the memory held
 * grows with the distinct shapes, not with the chains.  The wrapper reads
 * them out, in the order first seen, with their counts, in one more call.
 *
 * Node ids are int32.  The wrapper refuses any growth past INT32_MAX child
 * slots before calling in, so every id and link below fits; indexes into
 * the child array are computed in int64.  Functions that allocate return
 * 0 on success and -1 when memory runs out, leaving the kernel usable.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* The shapes of dg_histogram's chains, held until dg_histogram_read: each
 * distinct shape once, in the order first seen, len bytes each in `shapes`,
 * with its count and hash, and an open-addressing table of mask + 1 slots
 * that holds index + 1 of a shape, 0 when empty, at a load of at most 1/2.
 * `room` is how many shapes the arrays hold. */
typedef struct {
    int64_t len, distinct, room, mask;
    char *shapes;
    int64_t *counts;
    uint64_t *hashes;
    int64_t *slots;
} shape_table;

typedef struct {
    /* public head, mirrored field for field by _growth_c._Head */
    int64_t d;
    int64_t n;
    int64_t node_allocations;
    int64_t link_redirections;
    int64_t rng_draws;
    int64_t lex_letters_compared;
    int64_t max_step_redirections;
    double lex_seconds;
    uint64_t state;
    /* 2^64 / d rounded up, for is_leaf, jump_index and parent_index */
    uint64_t div_mul;
    /* arena: ids 0 .. d*n live, room for cap ids and cap child slots */
    int64_t cap;
    int32_t *up, *child;
    /* d >= 3: internal node u's J-th ancestor w as jump[u / d] = w / d, or
     * n + J - depth(u) > n when u is less than J deep; while n <= J, only
     * known to be above n */
    int32_t *jump;
    /* per-step scratch, d entries each, allocated by the first step */
    int64_t *rk, *edges, *pos, *depth, *leaf, *order, *lcp, *aux, *aux_lcp;
    shape_table table;
} dg_kernel;

enum { SCRATCH = 9 }; /* the scratch arrays above, rk first */

/* The jump distance: internal nodes keep their J-th ancestor. */
enum { J = 8 };

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/* ------------------------------------------------------------------ */
/* memory */

static void table_free(shape_table *t)
{
    free(t->shapes);
    free(t->counts);
    free(t->hashes);
    free(t->slots);
    memset(t, 0, sizeof *t);
}

void dg_free(dg_kernel *k)
{
    if (!k)
        return;
    table_free(&k->table);
    free(k->up);
    free(k->child);
    free(k->jump);
    free(k->rk); /* all of the per-step scratch */
    free(k);
}

/* Room for `nodes` nodes: exact for a bulk request, doubling otherwise. */
static int reserve(dg_kernel *k, int64_t nodes)
{
    int64_t cap = k->cap * 2;
    void *p;
    if (nodes <= k->cap)
        return 0;
    if (nodes > 1 && !k->rk) { /* the first step's scratch arrays, one block */
        if (!(k->rk = malloc(SCRATCH * k->d * sizeof(int64_t))))
            return -1;
        k->edges = k->rk + k->d;
        k->pos = k->edges + k->d;
        k->depth = k->pos + k->d;
        k->leaf = k->depth + k->d;
        k->order = k->leaf + k->d;
        k->lcp = k->order + k->d;
        k->aux = k->lcp + k->d;
        k->aux_lcp = k->aux + k->d;
    }
    if (cap < nodes)
        cap = nodes;
    if (cap > (int64_t)INT32_MAX + 1 && nodes <= (int64_t)INT32_MAX + 1)
        cap = (int64_t)INT32_MAX + 1;
    /* a failed realloc leaves the old block, and cap, in place */
    if (!(p = realloc(k->up, cap * sizeof(int32_t))))
        return -1;
    k->up = p;
    if (!(p = realloc(k->child, cap * sizeof(int32_t))))
        return -1;
    k->child = p;
    if (k->d > 2) {
        if (!(p = realloc(k->jump, (cap / k->d + 1) * sizeof(int32_t))))
            return -1;
        k->jump = p;
    }
    k->cap = cap;
    return 0;
}

/* Back to the single-node tree; counters cleared, PRNG untouched. */
void dg_reset(dg_kernel *k)
{
    k->n = 0;
    k->up[0] = -1;
    k->node_allocations = 0;
    k->link_redirections = 0;
    k->lex_letters_compared = 0;
    k->lex_seconds = 0.0;
    k->max_step_redirections = 0;
}

dg_kernel *dg_new(int64_t d, uint64_t seed)
{
    dg_kernel *k = calloc(1, sizeof(dg_kernel));
    if (!k)
        return NULL;
    k->d = d;
    k->state = seed;
    k->div_mul = UINT64_MAX / (uint64_t)d + 1;
    if (reserve(k, 1) < 0) {
        dg_free(k);
        return NULL;
    }
    dg_reset(k);
    return k;
}

/* ------------------------------------------------------------------ */
/* PRNG (splitmix64) */

static inline uint64_t next64(dg_kernel *k)
{
    uint64_t z = (k->state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    k->rng_draws++;
    return z ^ (z >> 31);
}

/*
 * Reject draws at or above floor(2^64 / m) * m; m == 1 draws nothing.
 * x is below that bound exactly when its multiple x - x % m leaves room
 * for m more under 2^64, which costs no second division.
 */
static inline uint64_t uniform_below(dg_kernel *k, uint64_t m)
{
    uint64_t x, r;
    if (m == 1)
        return 0;
    do {
        x = next64(k);
        r = x % m;
    } while (x - r > 0 - m);
    return r;
}

uint64_t dg_uniform_below(dg_kernel *k, uint64_t m)
{
    return uniform_below(k, m);
}

/* ------------------------------------------------------------------ */
/* lex ordering of marked edges */

/*
 * Division by d without a divide, for node ids (below 2^32) and m = 2^64 / d
 * rounded up (Lemire, Kaser and Kurz, "Faster remainder by direct
 * computation", 2019): the low half of u * m is below m exactly when d
 * divides u, and its high half is u / d.
 */
static inline int is_leaf(int64_t u, uint64_t m)
{
    return (uint64_t)u * m >= m || !u;
}

/* u / d for u below 2^32: an internal node's jump index, or the row a link
 * points into. */
static inline int64_t jump_index(int64_t u, uint64_t m)
{
    return (int64_t)(((unsigned __int128)(uint64_t)u * m) >> 64);
}

/* The jump index of the parent of u, not the root: its row holds child[up[u]]. */
static inline int64_t parent_index(const dg_kernel *k, int64_t u)
{
    return jump_index(k->up[u], k->div_mul) + 1;
}

/* h plus the depth of the internal node with jump index x: jumps while they
 * are ancestors, then the last node's depth read off its jump, or climbed by
 * parent steps while n <= J. */
static inline int64_t depth_from(const dg_kernel *k, int64_t x, int64_t h)
{
    for (; k->jump[x] <= k->n; x = k->jump[x])
        h += J;
    if (k->n > J)
        return h + k->n + J - k->jump[x];
    for (; k->up[x * k->d] >= 0; x = parent_index(k, x * k->d))
        h++;
    return h;
}

/* The ancestor by >= 1 levels above u; a leaf has no jump entry. */
static inline int64_t lift(const dg_kernel *k, int64_t u, int64_t leaf, int64_t by)
{
    int64_t x = leaf ? parent_index(k, u) : jump_index(u, k->div_mul);
    for (by -= leaf; by >= J; by -= J)
        x = k->jump[x];
    for (; by > 0; by--)
        x = parent_index(k, x * k->d);
    return x * k->d;
}

/*
 * Compare the root words of marked edges i and j (scratch entries): > 0 when
 * i's is the larger.  *lcp gets the length of their common prefix, which is
 * the depth of the two nodes' lowest common ancestor.  The deeper node is
 * lifted to the other's depth; if it lands on the other, that one is its
 * ancestor and has the shorter word, a prefix.  Otherwise both climb in
 * lockstep, kept as jump indices, by jumps while they are at least J deep
 * and their J-th ancestors differ, and then by parent steps, to the two
 * children of their common ancestor, whose links decide.
 */
static int cmp_edges(const dg_kernel *k, int64_t i, int64_t j, int64_t *lcp)
{
    const int32_t *jump = k->jump;
    int64_t d = k->d, a = k->edges[i], b = k->edges[j], ha = k->depth[i], hb = k->depth[j];
    int64_t la = k->leaf[i], lb = k->leaf[j], h = ha < hb ? ha : hb, xa, xb, pa, pb;
    if (ha > hb)
        a = lift(k, a, la, ha - hb), la = 0;
    else if (hb > ha)
        b = lift(k, b, lb, hb - ha), lb = 0;
    if (a == b) {
        *lcp = h;
        return ha > hb ? 1 : -1;
    }
    if (la || lb) { /* a leaf has no jump entry: both step to their parents */
        xa = parent_index(k, a);
        xb = parent_index(k, b);
        if (xa == xb) {
            *lcp = h - 1;
            return k->up[a] > k->up[b] ? 1 : -1;
        }
        h--;
    } else {
        xa = jump_index(a, k->div_mul);
        xb = jump_index(b, k->div_mul);
    }
    for (; h >= J && jump[xa] != jump[xb]; xa = jump[xa], xb = jump[xb])
        h -= J;
    for (; (pa = parent_index(k, xa * d)) != (pb = parent_index(k, xb * d)); xa = pa, xb = pb)
        h--;
    *lcp = h - 1;
    return k->up[xa * d] > k->up[xb * d] ? 1 : -1;
}

/*
 * Merge the runs in[lo, mid) and in[mid, hi), each largest word first, into
 * out.  An entry's lcp is its common prefix with the entry before it in its
 * run.  la and lb are the common prefixes of the two heads with the last
 * entry out, x, which is larger than both: the head that shares more with x
 * is the larger one, and only a tie needs a compare (an LCP merge).  Either
 * way the lcp of every entry out, and of the other head with it, is known.
 */
static void merge(const dg_kernel *k, const int64_t *in, const int64_t *in_lcp, int64_t lo,
                  int64_t mid, int64_t hi, int64_t *out, int64_t *out_lcp)
{
    int64_t i = lo, j = mid, o, la = 0, lb = 0, c = 0;
    int take_a;
    for (o = lo; o < hi; o++) {
        if (i == mid || j == hi)
            take_a = j == hi;
        else if (la != lb)
            take_a = la > lb, c = la < lb ? la : lb;
        else
            take_a = cmp_edges(k, in[i], in[j], &c) > 0;
        if (take_a) {
            out_lcp[o] = la;
            out[o] = in[i++];
            la = i < mid ? in_lcp[i] : 0;
            lb = c;
        } else {
            out_lcp[o] = lb;
            out[o] = in[j++];
            lb = j < hi ? in_lcp[j] : 0;
            la = c;
        }
    }
}

/* The letters a word compare reads: one past the common prefix, unless the
 * prefix is the whole shorter word. */
static inline int64_t letters(int64_t lcp, int64_t ha, int64_t hb)
{
    return lcp + (lcp < (ha < hb ? ha : hb));
}

/* Letters compared by the spec's insertion sort (`_growth_py`), replayed on
 * the sorted order: edge i, in its turn, is compared with each earlier edge
 * whose word is smaller and then with the nearest larger one.  The common
 * prefix of two ranks is the least lcp between them.  seen[q] is the depth
 * of the edge at rank q once its turn has come, -1 before. */
static int64_t letters_compared(const dg_kernel *k, const int64_t *order, const int64_t *lcp,
                                int64_t ne, int64_t *rank, int64_t *seen)
{
    int64_t total = 0, top = -1, i, q, r, m, h;
    for (i = 0; i < ne; i++) {
        rank[order[i]] = i;
        seen[i] = -1;
    }
    for (i = 0; i < ne; i++) {
        r = rank[i];
        h = k->depth[i];
        for (q = r + 1, m = INT64_MAX; q <= top; q++) {
            m = lcp[q] < m ? lcp[q] : m;
            total += seen[q] < 0 ? 0 : letters(m, seen[q], h);
        }
        for (q = r - 1, m = INT64_MAX; q >= 0; q--) {
            m = lcp[q + 1] < m ? lcp[q + 1] : m;
            if (seen[q] >= 0) {
                total += letters(m, seen[q], h);
                break;
            }
        }
        seen[r] = h;
        top = r > top ? r : top;
    }
    return total;
}

/* Sort edges[0..ne) by root word, largest first, and count the letters the
 * spec compares.  Depths come from the jumps, two edges side by side so that
 * their cache misses overlap; the order from a merge sort of edge indices. */
static void sort_edges_desc(dg_kernel *k, int64_t ne)
{
    int64_t *edges = k->edges, *depth = k->depth, *leaf = k->leaf;
    int64_t *order = k->order, *lcp = k->lcp, *aux = k->aux, *aux_lcp = k->aux_lcp, *t;
    int64_t i, w, lo, a, b, ha, hb, c;
    for (i = 0; i < ne; i++) { /* the relink after sorting writes this child row */
        __builtin_prefetch(k->child + k->up[edges[i]], 1);
        leaf[i] = is_leaf(edges[i], k->div_mul);
        order[i] = i;
    }
    for (i = 0; i < ne; i += 2) { /* an odd last edge walks alone */
        a = leaf[i] ? parent_index(k, edges[i]) : jump_index(edges[i], k->div_mul);
        ha = leaf[i];
        if (i + 1 == ne) {
            depth[i] = depth_from(k, a, ha);
            break;
        }
        b = leaf[i + 1] ? parent_index(k, edges[i + 1]) : jump_index(edges[i + 1], k->div_mul);
        hb = leaf[i + 1];
        for (; k->jump[a] <= k->n && k->jump[b] <= k->n; a = k->jump[a], b = k->jump[b])
            ha += J, hb += J;
        depth[i] = depth_from(k, a, ha);
        depth[i + 1] = depth_from(k, b, hb);
    }
    /* every step at d = 3: one compare, as the spec makes.  The fork pays:
     * without it, in one process with both builds loaded, dg_steps at d = 3,
     * n = 10^5 went 51.2 -> 54.2 ms (faster in 1 of 20) and dg_histogram at
     * d = 3, n = 4, 110k chains 35.7 -> 38.0 ms; d = 5 read 1.018, d = 12 1.012 */
    if (ne == 2) {
        if (cmp_edges(k, 0, 1, &c) < 0) {
            a = edges[0];
            edges[0] = edges[1];
            edges[1] = a;
        }
        k->lex_letters_compared += letters(c, depth[0], depth[1]);
        return;
    }
    for (w = 1; w < ne; w *= 2) {
        for (lo = 0; lo < ne; lo += 2 * w)
            merge(k, order, lcp, lo, lo + w < ne ? lo + w : ne, lo + 2 * w < ne ? lo + 2 * w : ne,
                  aux, aux_lcp);
        t = order, order = aux, aux = t;
        t = lcp, lcp = aux_lcp, aux_lcp = t;
    }
    k->lex_letters_compared += letters_compared(k, order, lcp, ne, aux, aux_lcp);
    for (i = 0; i < ne; i++)
        aux[i] = edges[order[i]];
    for (i = 0; i < ne; i++)
        edges[i] = aux[i];
}

/* The jump entries of internal node u, h >= 1 deep under the root, and of
 * the internal nodes below it at most J deep: n + J - depth. */
static void set_jumps(dg_kernel *k, int64_t u, int64_t h)
{
    int64_t d = k->d, j, c;
    k->jump[jump_index(u, k->div_mul)] = (int32_t)(k->n + J - h);
    if (h < J)
        for (j = u - d; j < u; j++)
            if (!is_leaf(c = k->child[j], k->div_mul))
                set_jumps(k, c, h + 1);
}

/*
 * One preorder walk over the internal nodes, each with the jump it should
 * hold: n + J - h when it is h < J deep, else the node J parent steps up.
 * `fix` writes every jump; otherwise the walk returns the first jump index
 * whose jump differs, or, while n <= J, is not above n (the jumps read
 * then), and -1 when there is none.  It keeps no stack: after a node comes
 * its first internal child, else the next internal sibling of it or of its
 * nearest ancestor that has one, found through the links.
 */
static int64_t walk_jumps(dg_kernel *k, int fix)
{
    int64_t d = k->d, n = k->n, root = d * n, u = root, h = 0, x, want, end, j, w, i;
    for (;;) {
        x = jump_index(u, k->div_mul);
        want = n + J - h;
        if (h >= J) {
            for (w = u, i = 0; i < J; i++)
                w = parent_index(k, w) * d;
            want = jump_index(w, k->div_mul);
        }
        if (fix)
            k->jump[x] = (int32_t)want;
        else if (n > J ? k->jump[x] != want : k->jump[x] <= n)
            return x;
        /* the next internal node: down into u's row, then up through rows */
        for (j = u - d, end = u, h++;; j = k->up[end] + 1, end = w, h--) {
            for (; j < end && is_leaf(k->child[j], k->div_mul); j++)
                ;
            if (j < end)
                break;
            if (end == root)
                return -1;
            w = (jump_index(k->up[end], k->div_mul) + 1) * d;
        }
        u = k->child[j];
    }
}

/* ------------------------------------------------------------------ */
/* one growth step; the arena must have room for d more nodes */

/* The allocation order of `_growth_py`.  pos[p] is the subtree hung at
 * position p of the new root; the old root keeps the last free one.  Only
 * the new root and the cut subtrees' nodes at most J deep get new jumps:
 * the old tree's jumps stay right as it moves one level down (see the top
 * of this file), and a deeper node's J nearest ancestors are in its cut
 * subtree.  While n <= J only the new root's is written, and the step to
 * n = J + 1 writes them all.  The lex phase adds its time to lex_seconds
 * when `timed`. */
static void apply(dg_kernel *k, const int64_t *ranks, int64_t letter, int timed)
{
    int64_t d = k->d, root = d * k->n, v = root, ne = 0, i, p, u, c, redirections;
    int64_t *pos = k->pos;

    for (p = 0; p < d; p++)
        pos[p] = root; /* free */
    for (i = 0; i < d - 1; i++) {
        if (ranks[i] >= root)
            pos[ranks[i] - root] = -1; /* a bud */
        else
            k->edges[ne++] = ranks[i];
    }
    if (ne >= 2) {
        double t0 = timed ? now() : 0.0;
        sort_edges_desc(k, ne);
        if (timed)
            k->lex_seconds += now() - t0;
    }

    for (p = 0; p < d; p++)
        if (pos[p] < 0)
            pos[p] = ++v;
    for (p = d - 1, i = 0; i < ne; p--) {
        if (pos[p] != root)
            continue;
        u = k->edges[i++];
        k->child[k->up[u]] = (int32_t)++v;
        k->up[v] = k->up[u];
        pos[p] = u;
    }

    v++; /* the new root: its row starts at the old root's id */
    for (i = 0; i < d; i++) {
        c = pos[(i + letter) % d];
        k->child[root + i] = (int32_t)c;
        k->up[c] = (int32_t)(root + i);
    }
    k->up[v] = -1;
    k->n++;
    if (k->jump) { /* v's jump index is n */
        k->jump[k->n] = (int32_t)(k->n + J);
        if (k->n == J + 1)
            walk_jumps(k, 1);
        else if (k->n > J)
            for (i = 0; i < ne; i++)
                if (!is_leaf(k->edges[i], k->div_mul))
                    set_jumps(k, k->edges[i], 1);
    }

    redirections = 2 * ne + 2 * d;
    k->node_allocations += d;
    k->link_redirections += redirections;
    if (redirections > k->max_step_redirections)
        k->max_step_redirections = redirections;
}

/* Draw one step's d - 1 distinct ranks into rk, of a tree with n internal
 * nodes, and its letter.  The draws depend on the PRNG and n alone. */
static inline void draw_step(dg_kernel *k, int64_t n, int64_t *rk, int64_t *letter)
{
    int64_t d = k->d, universe = d * n + d - 1, got = 0, i, r;
    while (got < d - 1) {
        r = (int64_t)uniform_below(k, (uint64_t)universe);
        for (i = 0; i < got && rk[i] != r; i++)
            ;
        if (i == got)
            rk[got++] = r;
    }
    *letter = (int64_t)uniform_below(k, (uint64_t)d) + 1;
}

/* Steps drawn ahead at d = 2 (a power of two), and how many steps before its
 * own a step's child row is prefetched. */
enum { AHEAD = 16, LATE = 8 };

/*
 * d = 2, software-pipelined: step i + AHEAD - 1 is drawn and its link
 * prefetched, step i + LATE reads its (by now cached) link and prefetches
 * the child entry its relink writes, and step i is applied.
 * A prefetch reads ids that earlier steps may still move, which costs a
 * wasted fetch at worst; apply reads the arena afresh and cannot fail, so
 * no draw is ever left unapplied.
 */
static void steps_d2(dg_kernel *k, int64_t count)
{
    int64_t rank[AHEAD], letter[AHEAD], drawn = 0, i, r, p;
    for (i = 0; i < count; i++) {
        for (; drawn < count && drawn < i + AHEAD; drawn++) {
            r = drawn & (AHEAD - 1);
            draw_step(k, k->n + drawn - i, &rank[r], &letter[r]);
            __builtin_prefetch(k->up + rank[r]);
        }
        if (i + LATE < drawn) {
            r = rank[(i + LATE) & (AHEAD - 1)];
            if (r < 2 * k->n + 1 && (p = k->up[r]) >= 0)
                __builtin_prefetch(k->child + p, 1);
        }
        /* one marked edge at most: no lex phase to time */
        apply(k, &rank[i & (AHEAD - 1)], letter[i & (AHEAD - 1)], 0);
    }
}

static int steps(dg_kernel *k, int64_t count, int timed)
{
    int64_t i, letter;
    if (count <= 0)
        return 0;
    if (reserve(k, k->d * (k->n + count) + 1) < 0)
        return -1;
    if (k->d == 2) {
        steps_d2(k, count);
        return 0;
    }
    for (i = 0; i < count; i++) {
        draw_step(k, k->n, k->rk, &letter);
        apply(k, k->rk, letter, timed);
    }
    return 0;
}

int dg_steps(dg_kernel *k, int64_t count)
{
    return steps(k, count, 1);
}

/* Apply one step with ranks and letter already validated by the caller. */
int dg_step_with(dg_kernel *k, const int64_t *ranks, int64_t letter)
{
    if (reserve(k, k->d * (k->n + 1) + 1) < 0)
        return -1;
    apply(k, ranks, letter, 1);
    return 0;
}

/* ------------------------------------------------------------------ */
/* inspection */

/* Root word of node u into the top of out[0 .. cap): returns its length h,
 * the word filling out[cap - h .. cap), or -1 when it does not fit.  It is
 * written from its last letter down, one link per letter: the slot, and the
 * row's owner as the next node up. */
int64_t dg_edge_word(const dg_kernel *k, int64_t u, int32_t *out, int64_t cap)
{
    int32_t *p = out + cap;
    int64_t j, x;
    for (; (j = k->up[u]) >= 0; u = (x + 1) * k->d) {
        if (p == out)
            return -1;
        x = jump_index(j, k->div_mul);
        *--p = (int32_t)(j - x * k->d + 1);
    }
    return out + cap - p;
}

/* The first jump index whose jump is wrong, or -1 when all are right
 * (always at d = 2, which keeps no jumps): see walk_jumps. */
int64_t dg_check_jumps(dg_kernel *k)
{
    return k->jump && k->n ? walk_jumps(k, 0) : -1;
}

enum { WALK_HEIGHT, WALK_SHAPE, WALK_PAREN };

/*
 * The preorder walk of the top of this file, for one mode: the bytes
 * written, or the height for WALK_HEIGHT; -1 when the stack cannot be
 * allocated.  The kernel's fields are held in locals, since a stored byte
 * may alias any of them.  Inlined into each entry point, so that the loop
 * is compiled for the mode: a histogram chain walks a tree of a few nodes.
 */
static inline __attribute__((always_inline)) int64_t walk(const dg_kernel *k, const int mode,
                                                           char *out)
{
    const int32_t *child = k->child;
    const uint64_t div_mul = k->div_mul;
    const int64_t d = k->d, nodes = d * k->n + 1;
    int64_t top = 1, h = 0, best = 0, u, c, j;
    char *at = out;
    /* an entry is a node not yet visited or the marker of one visited, so
     * at most one per node is pending; a left comb pends them all */
    int32_t *stack = malloc(nodes * sizeof(int32_t));
    if (!stack)
        return -1;
    stack[0] = (int32_t)(d * k->n);
    while (top) {
        u = stack[--top];
        if (u < 0) { /* the end of a subtree */
            h--;
            if (mode == WALK_PAREN)
                *at++ = ')';
        } else if (is_leaf(u, div_mul)) {
            if (mode == WALK_HEIGHT)
                best = h > best ? h : best;
            else
                *at++ = mode == WALK_SHAPE ? 0 : 'o';
        } else {
            if (mode != WALK_HEIGHT)
                *at++ = mode == WALK_SHAPE ? 1 : '(';
            if (mode != WALK_SHAPE) {
                stack[top++] = -1;
                h++;
            }
            /* a popped internal node c reads its row child[c - d .. c),
             * which ends beside child[c] (c <= d*n < cap): fetch that */
            for (j = 1; j <= d; j++) {
                stack[top++] = c = child[u - j];
                __builtin_prefetch(child + c);
            }
        }
    }
    free(stack);
    return mode == WALK_HEIGHT ? best : at - out;
}

int64_t dg_height(const dg_kernel *k)
{
    return walk(k, WALK_HEIGHT, NULL);
}

/* The shape: one byte per node in preorder, 1 internal and 0 leaf. */
int64_t dg_code(const dg_kernel *k, char *out)
{
    return walk(k, WALK_SHAPE, out);
}

int64_t dg_paren_text(const dg_kernel *k, char *out)
{
    return walk(k, WALK_PAREN, out);
}

/* ------------------------------------------------------------------ */
/* histogram */

/* A hash of len bytes: 8 at a time, mixed by multiplies, then splitmix64's
 * finalizer, so that the table's low bits depend on every byte. */
static uint64_t shape_hash(const char *s, int64_t len)
{
    uint64_t h = (uint64_t)len, w;
    int64_t i;
    for (i = 0; i + 8 <= len; i += 8) {
        memcpy(&w, s + i, 8);
        h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 32;
    }
    w = 0;
    memcpy(&w, s + i, len - i);
    h ^= w;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
}

/* Room for one more shape, the next one at shapes + distinct * len, with
 * the table at a load of at most 1/2 once it is added.  The arrays double up
 * to `most` shapes, and the table doubles and is refilled from the stored
 * hashes.  -1 when memory runs out. */
static int table_reserve(shape_table *t, int64_t most)
{
    int64_t room = t->room ? 2 * t->room : 16, size, i, j;
    int64_t *slots;
    void *p;
    if (t->distinct == t->room) {
        if (room > most)
            room = most;
        if (!(p = realloc(t->shapes, room * t->len)))
            return -1;
        t->shapes = p;
        if (!(p = realloc(t->counts, room * sizeof(int64_t))))
            return -1;
        t->counts = p;
        if (!(p = realloc(t->hashes, room * sizeof(uint64_t))))
            return -1;
        t->hashes = p;
        t->room = room;
    }
    if (2 * (t->distinct + 1) <= t->mask + 1)
        return 0;
    size = t->slots ? 2 * (t->mask + 1) : 32;
    if (!(slots = calloc(size, sizeof(int64_t))))
        return -1;
    for (i = 0; i < t->distinct; i++) {
        for (j = t->hashes[i] & (size - 1); slots[j]; j = (j + 1) & (size - 1))
            ;
        slots[j] = i + 1;
    }
    free(t->slots);
    t->slots = slots;
    t->mask = size - 1;
    return 0;
}

/* Count the shape just written at shapes + distinct * len: one more for an
 * equal shape already stored (equal hashes, then equal bytes), else it is
 * kept as the next distinct shape, with count 1. */
static void table_add(shape_table *t)
{
    const char *s = t->shapes + t->distinct * t->len;
    uint64_t h = shape_hash(s, t->len);
    int64_t j, x;
    for (j = h & t->mask; (x = t->slots[j]); j = (j + 1) & t->mask)
        if (t->hashes[x - 1] == h && !memcmp(t->shapes + (x - 1) * t->len, s, t->len)) {
            t->counts[x - 1]++;
            return;
        }
    t->slots[j] = t->distinct + 1;
    t->hashes[t->distinct] = h;
    t->counts[t->distinct++] = 1;
}

/* Grow `chains` chains to size n on one PRNG stream, each from a reset, and
 * bin their shapes in the kernel's table, which dg_histogram_read hands over.
 * Each shape is walked straight into the store's next free place, so a
 * chain costs its steps, its walk and one hash lookup, and the memory held
 * is that of the distinct shapes.  Returns how many there are, or -1 when
 * memory runs out; the table is then released and the kernel left usable.
 * The reset before each chain would clear its lex time, so the chains are
 * not timed: lex_seconds reads 0 afterwards. */
int64_t dg_histogram(dg_kernel *k, int64_t n, int64_t chains)
{
    shape_table *t = &k->table;
    int64_t i;
    table_free(t);
    t->len = k->d * n + 1;
    for (i = 0; i < chains; i++) {
        dg_reset(k);
        if (table_reserve(t, chains) < 0 || steps(k, n, 0) < 0 ||
            dg_code(k, t->shapes + t->distinct * t->len) < 0) {
            table_free(t);
            return -1;
        }
        table_add(t);
    }
    return t->distinct;
}

/* The distinct shapes of the last dg_histogram, in the order first seen,
 * into out (len bytes each) and their counts into counts; the table is
 * released. */
void dg_histogram_read(dg_kernel *k, char *out, int64_t *counts)
{
    shape_table *t = &k->table;
    if (t->distinct) {
        memcpy(out, t->shapes, t->distinct * t->len);
        memcpy(counts, t->counts, t->distinct * sizeof(int64_t));
    }
    table_free(t);
}
