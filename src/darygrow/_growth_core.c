/*
 * Compiled growth core: the arena, the splitmix64 PRNG, the step loop, the
 * lex ordering of marked edges and the serializers, in plain C with no
 * Python headers.  `_growth_c.py` loads it with ctypes and wraps it in the
 * GrowthKernel API.  The behaviour contract (draw order, arena layout,
 * allocation order, counters) is documented in `_growth_py.py`, the
 * readable spec; the two kernels must stay observably identical.
 *
 * The lex phase is the only per-step cost that is not O(d): it walks each
 * marked edge's path to the root once, two edges side by side, and reads
 * slots only where two paths part.
 *
 * At d = 2 a step is one random parent/slot read and one dependent child
 * write, so the loop is software-pipelined: steps are drawn 16 ahead and
 * their arena lines prefetched (steps_d2).  This cannot be observed.  A
 * step's ranks and letter depend only on the PRNG state and n, never on the
 * tree, so drawing early gives the same draws in the same order; no draw is
 * made past the last step of a call, and every step is applied exactly as
 * before.  d >= 3 is not pipelined: there the lex phase's climbs already
 * keep the memory system busy, and prefetching only moved its stalls.
 *
 * The arena is compact: a tree of n internal nodes has ids 0 .. d*n, so a
 * step's d new ids are d*n + 1 .. d*n + d and apply hands them out by
 * counting, with no allocator and no live-node count.
 *
 * Node ids are int32.  The wrapper refuses any growth past INT32_MAX child
 * slots before calling in, so every id and slot below fits; indexes into
 * the child array are computed in int64.  Functions that allocate return
 * 0 on success and -1 when memory runs out, leaving the kernel usable.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef struct {
    /* public head, mirrored field for field by _growth_c.Head */
    int64_t d;
    int64_t n;
    int64_t node_allocations;
    int64_t link_redirections;
    int64_t rng_draws;
    int64_t lex_letters_compared;
    int64_t max_step_redirections;
    double lex_seconds;
    uint64_t state;
    /* arena: ids 0 .. d*n live, room for cap */
    int64_t cap;
    int32_t *parent, *slot, *child;
    /* per-step scratch, d entries each */
    int64_t *rk, *edges, *pos, *woff, *wlen;
    /* root paths (node ids) of the marked edges, for the lex phase */
    int32_t *words;
    int64_t words_cap;
} dg_kernel;

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/* ------------------------------------------------------------------ */
/* memory */

void dg_free(dg_kernel *k)
{
    if (!k)
        return;
    free(k->parent);
    free(k->slot);
    free(k->child);
    free(k->rk); /* all of the per-step scratch */
    free(k->words);
    free(k);
}

/* Room for `nodes` nodes: exact for a bulk request, doubling otherwise. */
static int reserve(dg_kernel *k, int64_t nodes)
{
    int64_t cap = k->cap * 2;
    void *p;
    if (nodes <= k->cap)
        return 0;
    if (cap < nodes)
        cap = nodes;
    if (cap > (int64_t)INT32_MAX + 1 && nodes <= (int64_t)INT32_MAX + 1)
        cap = (int64_t)INT32_MAX + 1;
    /* a failed realloc leaves the old block, and cap, in place */
    if (!(p = realloc(k->parent, cap * sizeof(int32_t))))
        return -1;
    k->parent = p;
    if (!(p = realloc(k->slot, cap * sizeof(int32_t))))
        return -1;
    k->slot = p;
    if (!(p = realloc(k->child, cap * k->d * sizeof(int32_t))))
        return -1;
    k->child = p;
    k->cap = cap;
    return 0;
}

/* Double the lex phase's path buffer (256 ids at first). */
static int grow_words(dg_kernel *k)
{
    int64_t cap = k->words_cap ? 2 * k->words_cap : 256;
    int32_t *p = realloc(k->words, cap * sizeof(int32_t));
    if (!p)
        return -1;
    k->words = p;
    k->words_cap = cap;
    return 0;
}

/* Back to the single-node tree; counters cleared, PRNG untouched. */
void dg_reset(dg_kernel *k)
{
    k->n = 0;
    k->parent[0] = -1;
    k->slot[0] = 0;
    k->child[0] = -1;
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
    /* the five scratch arrays share one block */
    if (!(k->rk = malloc(5 * d * sizeof(int64_t))) || reserve(k, 1) < 0 ||
        grow_words(k) < 0) {
        dg_free(k);
        return NULL;
    }
    k->edges = k->rk + d;
    k->pos = k->edges + d;
    k->woff = k->pos + d;
    k->wlen = k->woff + d;
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

/* Node u's path up to, not including, the root, written downward from p so
 * that it reads root first from the result; NULL if it would pass lo. */
static inline int32_t *climb(const int32_t *parent, int64_t u, int32_t *p, const int32_t *lo)
{
    for (; parent[u] >= 0 && p > lo; u = parent[u])
        *--p = (int32_t)u;
    return parent[u] >= 0 ? NULL : p;
}

/* Compare the root words of two paths, counting letters.  Equal ids at equal
 * depth are one node, so the words agree up to the first ids that differ:
 * two siblings, ordered by their slots. */
static int cmp_paths(dg_kernel *k, int64_t ao, int64_t al, int64_t bo, int64_t bl)
{
    const int32_t *a = k->words + ao, *b = k->words + bo;
    int64_t limit = al < bl ? al : bl, i;
    for (i = 0; i < limit; i++) {
        if (a[i] != b[i]) {
            k->lex_letters_compared += i + 1;
            return k->slot[a[i]] < k->slot[b[i]] ? -1 : 1;
        }
    }
    k->lex_letters_compared += i;
    return al == bl ? 0 : (al < bl ? -1 : 1);
}

/* Sort edges[0..ne) by root word, largest first (insertion sort).  Edges walk
 * two at a time, so that their parent chains overlap their cache misses; an
 * odd last edge pairs with the root, whose path is empty (scratch entry ne < d
 * goes unused).  Edge i fills lane words[i*lane, (i+1)*lane); a full lane
 * doubles the buffer and the walk starts again. */
static int sort_edges_desc(dg_kernel *k, int64_t *edges, int64_t ne)
{
    const int32_t *parent = k->parent;
    int64_t lane, i, j, a, b;
    int32_t *lo, *pa, *pb;
    for (i = 0; i < ne; i++) /* the relink after sorting writes this child row */
        __builtin_prefetch(k->child + parent[edges[i]] * k->d + k->slot[edges[i]] - 1, 1);
restart:
    lane = k->words_cap / (ne + 1);
    for (i = 0; i < ne; i += 2) {
        lo = k->words + i * lane;
        a = edges[i];
        b = i + 1 < ne ? edges[i + 1] : k->d * k->n;
        /* the lanes fill in step, so one room test covers both */
        for (pa = lo + lane, pb = pa + lane; parent[a] >= 0 && parent[b] >= 0 && pa > lo;
             a = parent[a], b = parent[b]) {
            *--pa = (int32_t)a;
            *--pb = (int32_t)b;
        }
        pb = climb(parent, b, pb, lo + lane);
        if (!(pa = climb(parent, a, pa, lo)) || !pb) {
            if (grow_words(k) < 0)
                return -1;
            goto restart;
        }
        k->woff[i] = pa - k->words;
        k->wlen[i] = lo + lane - pa;
        k->woff[i + 1] = pb - k->words;
        k->wlen[i + 1] = lo + 2 * lane - pb;
    }
    for (i = 1; i < ne; i++) {
        int64_t eu = edges[i], eo = k->woff[i], el = k->wlen[i];
        for (j = i - 1; j >= 0 && cmp_paths(k, k->woff[j], k->wlen[j], eo, el) < 0; j--) {
            edges[j + 1] = edges[j];
            k->woff[j + 1] = k->woff[j];
            k->wlen[j + 1] = k->wlen[j];
        }
        edges[j + 1] = eu;
        k->woff[j + 1] = eo;
        k->wlen[j + 1] = el;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* one growth step; the arena must have room for d more nodes */

/* The allocation order of `_growth_py`.  pos[p] is the subtree hung at
 * position p of the new root; the old root keeps the last free one. */
static int apply(dg_kernel *k, const int64_t *ranks, int64_t letter)
{
    int64_t d = k->d, root = d * k->n, v = root, ne = 0, i, p, u, pu, c, base, redirections;
    int64_t *pos = k->pos;

    for (p = 0; p < d; p++)
        pos[p] = root; /* free */
    for (i = 0; i < d - 1; i++) {
        if (ranks[i] >= root)
            pos[ranks[i] - root] = -1; /* a bud */
        else
            k->edges[ne++] = ranks[i];
    }
    if (ne >= 2) { /* before any write, so a failure leaves the tree as it was */
        double t0 = now();
        if (sort_edges_desc(k, k->edges, ne) < 0)
            return -1;
        k->lex_seconds += now() - t0;
    }

    for (p = 0; p < d; p++) {
        if (pos[p] < 0) {
            pos[p] = ++v;
            k->child[v * d] = -1;
        }
    }
    for (p = d - 1, i = 0; i < ne; p--) {
        if (pos[p] != root)
            continue;
        u = k->edges[i++];
        pu = k->parent[u];
        k->child[pu * d + k->slot[u] - 1] = (int32_t)++v;
        k->child[v * d] = -1;
        k->parent[v] = (int32_t)pu;
        k->slot[v] = k->slot[u];
        pos[p] = u;
    }

    base = ++v * d;
    for (i = 0; i < d; i++) {
        c = pos[(i + letter) % d];
        k->child[base + i] = (int32_t)c;
        k->parent[c] = (int32_t)v;
        k->slot[c] = (int32_t)(i + 1);
    }
    k->parent[v] = -1;
    k->slot[v] = 0;
    k->n++;

    redirections = 2 * ne + 2 * d;
    k->node_allocations += d;
    k->link_redirections += redirections;
    if (redirections > k->max_step_redirections)
        k->max_step_redirections = redirections;
    return 0;
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
 * d = 2, software-pipelined: step i + AHEAD - 1 is drawn and its parent and
 * slot entries prefetched, step i + LATE reads its (by now cached) parent
 * and prefetches the child row its relink writes, and step i is applied.
 * A prefetch reads ids that earlier steps may still move, which costs a
 * wasted fetch at worst; apply reads the arena afresh.  apply cannot fail
 * at d = 2 (no lex phase), so no draw is ever left unapplied.
 */
static void steps_d2(dg_kernel *k, int64_t count)
{
    int64_t rank[AHEAD], letter[AHEAD], drawn = 0, i, r, p;
    for (i = 0; i < count; i++) {
        for (; drawn < count && drawn < i + AHEAD; drawn++) {
            r = drawn & (AHEAD - 1);
            draw_step(k, k->n + drawn - i, &rank[r], &letter[r]);
            __builtin_prefetch(k->parent + rank[r]);
            __builtin_prefetch(k->slot + rank[r]);
        }
        if (i + LATE < drawn) {
            r = rank[(i + LATE) & (AHEAD - 1)];
            if (r < 2 * k->n + 1 && (p = k->parent[r]) >= 0)
                __builtin_prefetch(k->child + 2 * p + k->slot[r] - 1, 1);
        }
        apply(k, &rank[i & (AHEAD - 1)], letter[i & (AHEAD - 1)]);
    }
}

int dg_steps(dg_kernel *k, int64_t count)
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
        if (apply(k, k->rk, letter) < 0)
            return -1;
    }
    return 0;
}

/* Apply one step with ranks and letter already validated by the caller. */
int dg_step_with(dg_kernel *k, const int64_t *ranks, int64_t letter)
{
    if (reserve(k, k->d * (k->n + 1) + 1) < 0)
        return -1;
    return apply(k, ranks, letter);
}

/* ------------------------------------------------------------------ */
/* inspection */

/* Root word of node u into the top of out[0 .. cap): returns its length h,
 * the word filling out[cap - h .. cap), or -1 when it does not fit. */
int64_t dg_edge_word(const dg_kernel *k, int64_t u, int32_t *out, int64_t cap)
{
    int32_t *p = climb(k->parent, u, out + cap, out), *q;
    for (q = p; p && q < out + cap; q++)
        *q = k->slot[*q];
    return p ? out + cap - p : -1;
}

enum { WALK_HEIGHT, WALK_CODE, WALK_TEXT, WALK_PAREN };

/*
 * Preorder walk.  Writes one symbol per node to out (WALK_CODE: byte sym
 * or 0; WALK_TEXT: "sym" or "0", space separated, sym being the decimal d
 * of length symlen; WALK_PAREN: "(" or "o", and ")" when a subtree ends)
 * and returns the bytes written; WALK_HEIGHT writes nothing and returns
 * the height.  -1 when the stack cannot be allocated.  The stack holds
 * node ids still to visit and, where the mode needs subtree ends, a -1
 * pushed below each internal node's children.
 */
static int64_t walk(const dg_kernel *k, int mode, char *out, const char *sym, int64_t symlen)
{
    int64_t d = k->d, top = 0, h = 0, best = 0, at = 0, u, base, j;
    int ends = mode == WALK_PAREN || mode == WALK_HEIGHT;
    int32_t *stack = malloc((d * k->n + 1 + k->n + 1) * sizeof(int32_t));
    if (!stack)
        return -1;
    stack[top++] = (int32_t)(d * k->n);
    while (top) {
        u = stack[--top];
        if (u < 0) {
            h--;
            if (mode == WALK_PAREN)
                out[at++] = ')';
            continue;
        }
        if (mode == WALK_TEXT && at)
            out[at++] = ' ';
        base = u * d;
        if (k->child[base] < 0) {
            if (mode == WALK_CODE)
                out[at++] = 0;
            else if (mode == WALK_TEXT)
                out[at++] = '0';
            else if (mode == WALK_PAREN)
                out[at++] = 'o';
            else if (h > best)
                best = h;
            continue;
        }
        if (mode == WALK_CODE)
            out[at++] = sym[0];
        else if (mode == WALK_TEXT)
            memcpy(out + at, sym, symlen), at += symlen;
        else if (mode == WALK_PAREN)
            out[at++] = '(';
        if (ends) {
            stack[top++] = -1;
            h++;
        }
        /* prefetched rows overlap misses the leaf test would serialize */
        for (j = d - 1; j >= 0; j--) {
            stack[top++] = k->child[base + j];
            __builtin_prefetch(k->child + (int64_t)k->child[base + j] * d);
        }
    }
    free(stack);
    return mode == WALK_HEIGHT ? best : at;
}

int64_t dg_height(const dg_kernel *k)
{
    return walk(k, WALK_HEIGHT, NULL, NULL, 0);
}

/* Preorder code, one byte per node: sym for internal nodes, 0 for leaves. */
int64_t dg_code(const dg_kernel *k, char *out, int64_t sym)
{
    char c = (char)sym;
    return walk(k, WALK_CODE, out, &c, 1);
}

int64_t dg_code_text(const dg_kernel *k, char *out, const char *sym, int64_t symlen)
{
    return walk(k, WALK_TEXT, out, sym, symlen);
}

int64_t dg_paren_text(const dg_kernel *k, char *out)
{
    return walk(k, WALK_PAREN, out, NULL, 0);
}

/* `chains` chains to size n on one PRNG stream, each shape key (byte 1 or
 * 0 per node) into the next d*n+1 bytes of out. */
int dg_histogram(dg_kernel *k, int64_t n, int64_t chains, char *out)
{
    int64_t i, len = k->d * n + 1;
    for (i = 0; i < chains; i++) {
        dg_reset(k);
        if (dg_steps(k, n) < 0 || dg_code(k, out + i * len, 1) < 0)
            return -1;
    }
    return 0;
}
