/*
 * Compiled core of the run-ahead engine (repro.sim.engine).
 *
 * ``run(engine, resolve_home)`` executes SimulationEngine.run's drain
 * loop and the whole L1 miss path (_miss, _remote_fetch, _round_trip,
 * _invalidate_node_block, _downgrade_node, the column-path block-cache
 * install and the L1-victim write-back) directly on the engine's own
 * objects:
 *
 *   - array('q') / bytearray columns (traces, L1s, block-cache lines,
 *     fine-grain tag rows) through the buffer protocol;
 *   - the directory's slot dict and owner/sharer/was-held lists, the
 *     page maps, the home map and the coherence_lost sets through the
 *     dict/list/set C API;
 *   - NodeStats and BusyResource fields through interned attribute
 *     names.
 *
 * Everything else is the same Python call the Python engine makes: the
 * OS/policy services (on_page_fault, on_refetch, record_refetch,
 * resolve_home, map_local), page-cache/tag/block-cache methods, the
 * canonical Directory requests for inexact representations,
 * Network.one_way_delay and Network._traverse, and
 * SimulationEngine._block_cache_install for dict-backed block caches.
 *
 * The loop returns the raw schedule outcome (finish times, per-node
 * miss and stall sums, scheduler counters, pending barrier arrivals);
 * engine.py settles the deferred counters with the same code for both
 * paths.
 *
 * Two kinds of state are kept in C for the duration of one run and
 * written back before it returns (also on error):
 *
 *   - per-node NodeStats deltas for the counters the miss path bumps.
 *     Python code only ever adds to these counters during a run, so
 *     adding the deltas at the end is equivalent;
 *   - free_at/busy_cycles/transactions of every node bus, NI and RAD,
 *     and the network's message counters.  Inside a run only this file
 *     and Network.one_way_delay touch them; the NI is written back
 *     before and reloaded after each one_way_delay call.
 *
 * Eligibility (exact SimulationEngine, no instance _miss hook, at most
 * 63 nodes so a sharer mask fits an int64) is checked in Python.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Encodings shared with the Python modules; native.py compares them
 * against the Python constants before using the core. */
enum { INVALID = 0, SHARED = 1, EXCLUSIVE = 2, OWNED = 3, MODIFIED = 4 };
enum { MAP_UNMAPPED = 0, MAP_LOCAL = 1, MAP_CC = 2, MAP_SCOMA = 3 };
enum { BLOCK_INVALID = 0, BLOCK_READONLY = 1, BLOCK_WRITABLE = 2 };
#define ADDR_SHIFT 21
#define THINK_MASK ((1LL << 20) - 1)
#define OUT_OWNER_SHIFT 1
#define OUT_OWNER_MASK 0x7FFFFFFFLL
#define OUT_INVAL_SHIFT 32
#define NO_OWNER (-1)
#define EMPTY (-1)
#define MAX_NODES 63

/* NodeStats counters the miss path accumulates in C. */
enum {
    S_LOCAL_FILLS,
    S_CACHE_TO_CACHE,
    S_BC_HITS,
    S_BC_MISSES,
    S_BC_WRITEBACKS,
    S_PC_HITS,
    S_PC_MISSES,
    S_REMOTE_FETCHES,
    S_REFETCHES,
    S_COHERENCE_MISSES,
    S_INVALIDATIONS_SENT,
    S_BARRIER_WAIT,
    N_STATS
};
static const char *stat_names[N_STATS] = {
    "local_fills",
    "cache_to_cache",
    "block_cache_hits",
    "block_cache_misses",
    "block_cache_writebacks",
    "page_cache_hits",
    "page_cache_misses",
    "remote_fetches",
    "refetches",
    "coherence_misses",
    "invalidations_sent",
    "barrier_wait_cycles",
};
static PyObject *stat_str[N_STATS];

/* Interned attribute and method names. */
static PyObject *s_free_at, *s_busy_cycles, *s_transactions, *s_messages,
    *s_round_trips, *s_stats, *s_barriers_crossed;
static PyObject *s_on_page_fault, *s_on_refetch, *s_record_refetch,
    *s_map_local, *s_touch_hit, *s_touch_miss, *s_set, *s_mark_dirty,
    *s_clear_dirty, *s_probe, *s_invalidate_probe, *s_downgrade,
    *s_writeback, *s_read_request, *s_write_request, *s_home_write_access,
    *s_one_way_delay, *s_traverse, *s_block_cache_install;

typedef struct {
    int64_t mask;
    int64_t *blocks;
    uint8_t *states;
} L1;

typedef struct {
    long long free_at, busy, tx;
} Busy;

typedef struct {
    PyObject *node, *stats, *pmap, *page_table, *coh, *tag_rows, *tags,
        *bc, *pc, *bus_obj, *ni_obj, *rad_obj;
    int has_cols;
    int reorders_on_hit;
    int64_t bc_mask;
    int64_t *bc_blocks;
    uint8_t *bc_writ, *bc_dirt;
    L1 *l1;
    long long st[N_STATS];
    Busy bus, ni, rad;
} Node;

typedef struct {
    int64_t *trace;
    Py_ssize_t len, pos;
    int node, slot;
} Cpu;

typedef struct {
    PyObject *engine, *machine, *policy, *homes, *directory, *network,
        *resolve_home, *slots, *owners, *sharers, *held, *requesters,
        *writers, *nodes_list, *columns;
    int dir_inline, uniform;
    long long net_latency, ni_occ, rad_occ, bus_occ, local_fill,
        remote_fetch, sram, inv_per_sharer, barrier_cost;
    int block_shift, bps;
    int64_t bpp_mask;
    int n_nodes, n_slots, n_cpus;
    Node *nodes;
    L1 *l1_pool;
    Cpu *cpus;
    long long messages, round_trips;
    Py_buffer *bufs;
    int n_bufs;
    int mirrors_loaded;
} Core;

/* Lazily created int keys for one miss: most misses need only some. */
typedef struct {
    int64_t b, g;
    PyObject *bk, *gk;
} Keys;

static PyObject *
bkey(Keys *k)
{
    if (k->bk == NULL)
        k->bk = PyLong_FromLongLong(k->b);
    return k->bk;
}

static PyObject *
gkey(Keys *k)
{
    if (k->gk == NULL)
        k->gk = PyLong_FromLongLong(k->g);
    return k->gk;
}

static void
keys_clear(Keys *k)
{
    Py_CLEAR(k->bk);
    Py_CLEAR(k->gk);
}

/* ------------------------------------------------------------------ */
/* small C-API helpers                                                */
/* ------------------------------------------------------------------ */

static int
as_ll(PyObject *o, long long *out)
{
    long long v = PyLong_AsLongLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
attr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int rc = as_ll(v, out);
    Py_DECREF(v);
    return rc;
}

static int
attr_ll_str(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    int rc = as_ll(v, out);
    Py_DECREF(v);
    return rc;
}

static int
set_attr_ll(PyObject *obj, PyObject *name, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, o);
    Py_DECREF(o);
    return rc;
}

static int
add_attr_ll(PyObject *obj, PyObject *name, long long delta)
{
    long long v;
    if (delta == 0)
        return 0;
    if (attr_ll(obj, name, &v) < 0)
        return -1;
    return set_attr_ll(obj, name, v + delta);
}

/* d.get(key, dflt) as a C integer. */
static int
dict_get_ll(PyObject *d, PyObject *key, long long dflt, long long *out)
{
    if (key == NULL)
        return -1;
    PyObject *v = PyDict_GetItemWithError(d, key);
    if (v == NULL) {
        if (PyErr_Occurred())
            return -1;
        *out = dflt;
        return 0;
    }
    return as_ll(v, out);
}

static int
dict_set_ll(PyObject *d, PyObject *key, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL)
        return -1;
    int rc = PyDict_SetItem(d, key, o);
    Py_DECREF(o);
    return rc;
}

static int
list_ll(PyObject *list, Py_ssize_t i, long long *out)
{
    return as_ll(PyList_GET_ITEM(list, i), out);
}

static int
list_set_ll(PyObject *list, Py_ssize_t i, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL)
        return -1;
    PyObject *old = PyList_GET_ITEM(list, i);
    PyList_SET_ITEM(list, i, o);
    Py_DECREF(old);
    return 0;
}

/* Directory slot of ``b`` (-1 when the directory has no entry). */
static int
dir_slot(Core *c, Keys *k, Py_ssize_t *out)
{
    PyObject *key = bkey(k);
    if (key == NULL)
        return -1;
    PyObject *v = PyDict_GetItemWithError(c->slots, key);
    if (v == NULL) {
        if (PyErr_Occurred())
            return -1;
        *out = -1;
        return 0;
    }
    Py_ssize_t s = PyLong_AsSsize_t(v);
    if (s == -1 && PyErr_Occurred())
        return -1;
    if (s >= PyList_GET_SIZE(c->owners) || s >= PyList_GET_SIZE(c->sharers)
        || s >= PyList_GET_SIZE(c->held)) {
        PyErr_SetString(PyExc_RuntimeError, "directory slot out of range");
        return -1;
    }
    *out = s;
    return 0;
}

/* obj.name(*args) -> new reference. */
static PyObject *
call(PyObject *obj, PyObject *name, PyObject **args, size_t nargs)
{
    PyObject *stack[6];
    stack[0] = obj;
    for (size_t i = 0; i < nargs; i++) {
        if (args[i] == NULL)
            return NULL;
        stack[i + 1] = args[i];
    }
    return PyObject_VectorcallMethod(
        name, stack, (nargs + 1) | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

/* obj.name(*args), result discarded. */
static int
call0(PyObject *obj, PyObject *name, PyObject **args, size_t nargs)
{
    PyObject *r = call(obj, name, args, nargs);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* obj.name(*args) as a C integer. */
static int
call_ll(PyObject *obj, PyObject *name, PyObject **args, size_t nargs,
        long long *out)
{
    PyObject *r = call(obj, name, args, nargs);
    if (r == NULL)
        return -1;
    int rc = as_ll(r, out);
    Py_DECREF(r);
    return rc;
}

/* Call with freshly boxed integer arguments. */
static int
call_ints(PyObject *obj, PyObject *name, long long *ints, size_t nargs,
          long long *out)
{
    PyObject *args[5] = {NULL, NULL, NULL, NULL, NULL};
    int rc = -1;
    for (size_t i = 0; i < nargs; i++) {
        args[i] = PyLong_FromLongLong(ints[i]);
        if (args[i] == NULL)
            goto done;
    }
    if (out != NULL)
        rc = call_ll(obj, name, args, nargs, out);
    else
        rc = call0(obj, name, args, nargs);
done:
    for (size_t i = 0; i < nargs; i++)
        Py_XDECREF(args[i]);
    return rc;
}

/* The tag row (bytearray) of page g on node n, or NULL if unmapped.
 * Borrowed: valid only until the next call back into Python. */
static int
tag_row(Node *n, Keys *k, uint8_t **row)
{
    PyObject *key = gkey(k);
    if (key == NULL)
        return -1;
    PyObject *v = PyDict_GetItemWithError(n->tag_rows, key);
    if (v == NULL) {
        if (PyErr_Occurred())
            return -1;
        *row = NULL;
        return 0;
    }
    if (!PyByteArray_Check(v)) {
        PyErr_SetString(PyExc_TypeError, "fine-grain tag row is not a bytearray");
        return -1;
    }
    *row = (uint8_t *)PyByteArray_AS_STRING(v);
    return 0;
}

static int
pmap_get(Node *n, PyObject *key, long long *out)
{
    return dict_get_ll(n->pmap, key, MAP_UNMAPPED, out);
}

static int
set_contains(PyObject *set, PyObject *key)
{
    if (key == NULL)
        return -1;
    return PySet_Contains(set, key);
}

static int
set_add(PyObject *set, PyObject *key)
{
    if (key == NULL)
        return -1;
    return PySet_Add(set, key);
}

/* ------------------------------------------------------------------ */
/* mirrors                                                            */
/* ------------------------------------------------------------------ */

static int
busy_load(PyObject *obj, Busy *b)
{
    if (attr_ll(obj, s_free_at, &b->free_at) < 0
        || attr_ll(obj, s_busy_cycles, &b->busy) < 0
        || attr_ll(obj, s_transactions, &b->tx) < 0)
        return -1;
    return 0;
}

static int
busy_store(PyObject *obj, Busy *b)
{
    if (set_attr_ll(obj, s_free_at, b->free_at) < 0
        || set_attr_ll(obj, s_busy_cycles, b->busy) < 0
        || set_attr_ll(obj, s_transactions, b->tx) < 0)
        return -1;
    return 0;
}

/* Keep the first pending exception in (et, ev, tb) and clear the
 * indicator, so the next C-API call runs with no exception set. */
static void
keep_first(int failed, PyObject **et, PyObject **ev, PyObject **tb)
{
    if (!failed)
        return;
    if (*et == NULL)
        PyErr_Fetch(et, ev, tb);
    else
        PyErr_Clear();
}

/* Write every mirror and deferred counter back to its Python object.
 * Runs on success and on error; keeps the first exception. */
static int
flush_mirrors(Core *c)
{
    PyObject *et = NULL, *ev = NULL, *tb = NULL;
    if (!c->mirrors_loaded)
        return 0;
    PyErr_Fetch(&et, &ev, &tb);
    for (int i = 0; i < c->n_nodes; i++) {
        Node *n = &c->nodes[i];
        for (int s = 0; s < N_STATS; s++) {
            keep_first(add_attr_ll(n->stats, stat_str[s], n->st[s]) < 0, &et, &ev, &tb);
            n->st[s] = 0;
        }
        keep_first(busy_store(n->bus_obj, &n->bus) < 0, &et, &ev, &tb);
        keep_first(busy_store(n->ni_obj, &n->ni) < 0, &et, &ev, &tb);
        keep_first(busy_store(n->rad_obj, &n->rad) < 0, &et, &ev, &tb);
    }
    keep_first(add_attr_ll(c->network, s_messages, c->messages) < 0, &et, &ev, &tb);
    keep_first(add_attr_ll(c->network, s_round_trips, c->round_trips) < 0, &et, &ev, &tb);
    c->messages = c->round_trips = 0;
    c->mirrors_loaded = 0;
    if (et != NULL) {
        PyErr_Restore(et, ev, tb);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* inter-node helpers                                                 */
/* ------------------------------------------------------------------ */

/* Drop b from every L1 of node n except slot ``keep`` (-1: all);
 * returns whether any held it. */
static int
drop_l1_copies(Core *c, Node *n, int64_t b, int keep)
{
    int had = 0;
    for (int s = 0; s < c->n_slots; s++) {
        if (s == keep)
            continue;
        L1 *l = &n->l1[s];
        int64_t idx = b & l->mask;
        if (l->blocks[idx] == b) {
            l->blocks[idx] = EMPTY;
            l->states[idx] = INVALID;
            had = 1;
        }
    }
    return had;
}

/* Every L1 copy of b on node n becomes SHARED. */
static void
share_l1_copies(Core *c, Node *n, int64_t b)
{
    for (int s = 0; s < c->n_slots; s++) {
        L1 *l = &n->l1[s];
        int64_t idx = b & l->mask;
        if (l->blocks[idx] == b)
            l->states[idx] = SHARED;
    }
}

/* SimulationEngine._round_trip */
static int
round_trip(Core *c, int src, int dst, long long now, long long extra,
           long long *out)
{
    c->messages++;
    c->round_trips++;
    long long ni_occ = c->ni_occ;
    Busy *ni = &c->nodes[src].ni;
    long long start = ni->free_at;
    if (now > start)
        start = now;
    ni->free_at = start + ni_occ;
    ni->busy += ni_occ;
    ni->tx++;
    long long wait = start - now;
    long long depart = now + wait + ni_occ;
    long long arrive;
    if (c->uniform) {
        arrive = depart + c->net_latency;
    }
    else {
        long long args[3] = {src, dst, depart}, t;
        if (call_ints(c->network, s_traverse, args, 3, &t) < 0)
            return -1;
        arrive = t + c->net_latency;
        wait = arrive - c->net_latency - ni_occ - now;
    }
    Busy *rad = &c->nodes[dst].rad;
    long long rad_occ = c->rad_occ + extra;
    start = rad->free_at;
    if (arrive > start)
        start = arrive;
    rad->free_at = start + rad_occ;
    rad->busy += rad_occ;
    rad->tx++;
    *out = wait + start - arrive;
    return 0;
}

/* directory.writeback(vb, nid); network.one_way_delay(nid, now,
 * homes.get(vg, nid)); block_cache_writebacks += 1 */
static int
write_back(Core *c, int nid, int64_t vb, long long now)
{
    Node *n = &c->nodes[nid];
    long long dst;
    PyObject *vgk = PyLong_FromLongLong(vb >> c->bps);
    if (vgk == NULL)
        return -1;
    int rc = dict_get_ll(c->homes, vgk, nid, &dst);
    Py_DECREF(vgk);
    if (rc < 0)
        return -1;
    long long wb_args[2] = {vb, nid};
    if (call_ints(c->directory, s_writeback, wb_args, 2, NULL) < 0)
        return -1;
    /* one_way_delay acquires the source NI in Python: hand it the
     * mirrored state and take the result back. */
    if (busy_store(n->ni_obj, &n->ni) < 0)
        return -1;
    long long ow_args[3] = {nid, now, dst}, ignored;
    if (call_ints(c->network, s_one_way_delay, ow_args, 3, &ignored) < 0)
        return -1;
    if (busy_load(n->ni_obj, &n->ni) < 0)
        return -1;
    n->st[S_BC_WRITEBACKS]++;
    return 0;
}

/* SimulationEngine._invalidate_node_block */
static int
invalidate_node_block(Core *c, int victim, Keys *k)
{
    Node *v = &c->nodes[victim];
    int64_t b = k->b;
    int had = drop_l1_copies(c, v, b, -1);
    if (v->has_cols) {
        int64_t idx = b & v->bc_mask;
        if (v->bc_blocks[idx] == b) {
            v->bc_blocks[idx] = EMPTY;
            v->bc_writ[idx] = 0;
            v->bc_dirt[idx] = 0;
            had = 1;
        }
    }
    else {
        PyObject *args[1] = {bkey(k)};
        long long flags;
        if (call_ll(v->bc, s_invalidate_probe, args, 1, &flags) < 0)
            return -1;
        if (flags >= 0)
            had = 1;
    }
    uint8_t *row;
    if (tag_row(v, k, &row) < 0)
        return -1;
    if (row != NULL) {
        int64_t off = b & c->bpp_mask;
        if (row[off] != BLOCK_INVALID) {
            /* tags.set keeps the dirty-bit bookkeeping consistent. */
            PyObject *offk = PyLong_FromLongLong(off);
            PyObject *args[3] = {gkey(k), offk, PyLong_FromLong(BLOCK_INVALID)};
            int rc = call0(v->tags, s_set, args, 3);
            Py_XDECREF(offk);
            Py_XDECREF(args[2]);
            if (rc < 0)
                return -1;
            had = 1;
        }
    }
    if (had && set_add(v->coh, bkey(k)) < 0)
        return -1;
    return 0;
}

/* SimulationEngine._downgrade_node */
static int
downgrade_node(Core *c, int owner, Keys *k)
{
    Node *v = &c->nodes[owner];
    int64_t b = k->b;
    share_l1_copies(c, v, b);
    if (v->has_cols) {
        int64_t idx = b & v->bc_mask;
        if (v->bc_blocks[idx] == b) {
            v->bc_writ[idx] = 0;
            v->bc_dirt[idx] = 0;
        }
    }
    else {
        PyObject *args[1] = {bkey(k)};
        if (call0(v->bc, s_downgrade, args, 1) < 0)
            return -1;
    }
    uint8_t *row;
    if (tag_row(v, k, &row) < 0)
        return -1;
    if (row != NULL) {
        int64_t off = b & c->bpp_mask;
        if (row[off] == BLOCK_WRITABLE) {
            row[off] = BLOCK_READONLY;
            /* Data went home; the local copy is now clean. */
            PyObject *offk = PyLong_FromLongLong(off);
            PyObject *args[2] = {gkey(k), offk};
            int rc = call0(v->tags, s_clear_dirty, args, 2);
            Py_XDECREF(offk);
            if (rc < 0)
                return -1;
        }
    }
    return 0;
}

/* Fan an invalidation mask out, lowest node first. */
static int
invalidate_mask(Core *c, long long mask, Keys *k)
{
    unsigned long long m = (unsigned long long)mask;
    while (m) {
        int victim = __builtin_ctzll(m);
        if (invalidate_node_block(c, victim, k) < 0)
            return -1;
        m &= m - 1;
    }
    return 0;
}

static int
or_mask(PyObject *d, PyObject *key, long long bit)
{
    long long cur;
    if (dict_get_ll(d, key, 0, &cur) < 0)
        return -1;
    return dict_set_ll(d, key, cur | bit);
}

/* SimulationEngine._remote_fetch */
static int
remote_fetch(Core *c, int nid, Keys *k, int write, long long now,
             int upgrade, long long *out)
{
    Node *n = &c->nodes[nid];
    int64_t b = k->b;
    long long nbit = 1LL << nid;
    long long home, refetch, extra = 0, v;
    PyObject *gk = gkey(k);
    if (gk == NULL)
        return -1;
    PyObject *h = PyDict_GetItemWithError(c->homes, gk);
    if (h == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, gk);
        return -1;
    }
    if (as_ll(h, &home) < 0)
        return -1;
    if (home < 0 || home >= c->n_nodes) {
        PyErr_SetString(PyExc_IndexError, "home node out of range");
        return -1;
    }
    Py_ssize_t ds = -1;
    if (c->dir_inline && dir_slot(c, k, &ds) < 0)
        return -1;

    if (write) {
        long long inval;
        if (ds < 0) {
            PyObject *args[3] = {bkey(k), PyLong_FromLong(nid),
                                 upgrade ? Py_True : Py_False};
            long long o;
            int rc = call_ll(c->directory, s_write_request, args, 3, &o);
            Py_XDECREF(args[1]);
            if (rc < 0)
                return -1;
            refetch = o & 1;
            inval = o >> OUT_INVAL_SHIFT;
        }
        else {
            long long owner;
            if (list_ll(c->owners, ds, &owner) < 0)
                return -1;
            refetch = 0;
            if (!upgrade && owner != nid) {
                if (list_ll(c->held, ds, &v) < 0)
                    return -1;
                refetch = (v >> nid) & 1;
            }
            if (list_ll(c->sharers, ds, &v) < 0)
                return -1;
            inval = v & ~nbit;
            if (list_set_ll(c->sharers, ds, nbit) < 0
                || list_set_ll(c->held, ds, nbit) < 0
                || list_set_ll(c->owners, ds, nid) < 0)
                return -1;
        }
        long long n_inval = __builtin_popcountll((unsigned long long)inval);
        n->st[S_INVALIDATIONS_SENT] += n_inval;
        extra = c->inv_per_sharer * n_inval;
        if (invalidate_mask(c, inval, k) < 0)
            return -1;
        /* The home's own L1s lose their copies too (its block cache and
         * tags hold remote data only). */
        Node *hn = &c->nodes[home];
        if (drop_l1_copies(c, hn, b, -1) && set_add(hn->coh, bkey(k)) < 0)
            return -1;
    }
    else {
        long long prev_owner = -1, evict = 0;
        if (ds < 0) {
            PyObject *args[2] = {bkey(k), PyLong_FromLong(nid)};
            long long o;
            int rc = call_ll(c->directory, s_read_request, args, 2, &o);
            Py_XDECREF(args[1]);
            if (rc < 0)
                return -1;
            refetch = o & 1;
            prev_owner = ((o >> OUT_OWNER_SHIFT) & OUT_OWNER_MASK) - 1;
            /* Limited-pointer eviction overflow sheds a sharer on a read. */
            evict = o >> OUT_INVAL_SHIFT;
        }
        else {
            long long owner;
            if (list_ll(c->owners, ds, &owner) < 0
                || list_ll(c->held, ds, &v) < 0)
                return -1;
            refetch = (v >> nid) & 1;
            if (owner >= 0 && owner != nid) {
                prev_owner = owner;
                if (list_set_ll(c->owners, ds, NO_OWNER) < 0)
                    return -1;
            }
            else if (owner == nid) {
                if (list_set_ll(c->owners, ds, NO_OWNER) < 0)
                    return -1;
            }
            if (list_ll(c->sharers, ds, &v) < 0
                || list_set_ll(c->sharers, ds, v | nbit) < 0
                || list_ll(c->held, ds, &v) < 0
                || list_set_ll(c->held, ds, v | nbit) < 0)
                return -1;
        }
        if (evict) {
            long long n_evict = __builtin_popcountll((unsigned long long)evict);
            n->st[S_INVALIDATIONS_SENT] += n_evict;
            extra = c->inv_per_sharer * n_evict;
            if (invalidate_mask(c, evict, k) < 0)
                return -1;
        }
        if (prev_owner >= 0) {
            if (prev_owner >= c->n_nodes) {
                PyErr_SetString(PyExc_IndexError, "owner node out of range");
                return -1;
            }
            if (downgrade_node(c, (int)prev_owner, k) < 0)
                return -1;
        }
        share_l1_copies(c, &c->nodes[home], b);
    }

    long long rt;
    if (round_trip(c, nid, (int)home, now, extra, &rt) < 0)
        return -1;
    long long lat = c->remote_fetch + rt;
    n->st[S_REMOTE_FETCHES]++;

    if (or_mask(c->requesters, gk, nbit) < 0)
        return -1;
    if (write && or_mask(c->writers, gk, nbit) < 0)
        return -1;

    if (refetch) {
        n->st[S_REFETCHES]++;
        PyObject *nidk = PyLong_FromLong(nid);
        PyObject *args[2] = {nidk, gk};
        int rc = call0(c->machine, s_record_refetch, args, 2);
        Py_XDECREF(nidk);
        if (rc < 0)
            return -1;
        PyObject *pargs[3] = {c->machine, n->node, gk};
        long long extra_lat;
        if (call_ll(c->policy, s_on_refetch, pargs, 3, &extra_lat) < 0)
            return -1;
        lat += extra_lat;
    }
    else {
        int r = set_contains(n->coh, bkey(k));
        if (r < 0)
            return -1;
        if (r) {
            n->st[S_COHERENCE_MISSES]++;
            if (PySet_Discard(n->coh, k->bk) < 0)
                return -1;
        }
    }
    *out = lat;
    return 0;
}

/* page_state.get(g) == MAP_SCOMA, re-read after a callback. */
static int
is_scoma(Node *n, Keys *k, int *out)
{
    long long m;
    if (pmap_get(n, gkey(k), &m) < 0)
        return -1;
    *out = m == MAP_SCOMA;
    return 0;
}

/* SimulationEngine._scoma_install: tags.set + page_cache.touch_miss */
static int
scoma_install(Core *c, Node *n, Keys *k, int writable)
{
    PyObject *offk = PyLong_FromLongLong(k->b & c->bpp_mask);
    PyObject *stk = PyLong_FromLong(writable ? BLOCK_WRITABLE : BLOCK_READONLY);
    PyObject *args[3] = {gkey(k), offk, stk};
    int rc = call0(n->tags, s_set, args, 3);
    Py_XDECREF(offk);
    Py_XDECREF(stk);
    if (rc < 0)
        return -1;
    PyObject *targs[1] = {gkey(k)};
    return call0(n->pc, s_touch_miss, targs, 1);
}

static int
tags_mark_dirty(Core *c, Node *n, PyObject *gk, int64_t b)
{
    PyObject *offk = PyLong_FromLongLong(b & c->bpp_mask);
    PyObject *args[2] = {gk, offk};
    int rc = call0(n->tags, s_mark_dirty, args, 2);
    Py_XDECREF(offk);
    return rc;
}

/* The column-path block-cache install (writable lines install dirty:
 * the fresh line is written immediately). */
static int
bc_install_cols(Core *c, int nid, int64_t b, int writable, long long now)
{
    Node *n = &c->nodes[nid];
    int64_t bidx = b & n->bc_mask;
    int64_t resident = n->bc_blocks[bidx];
    if (resident >= 0 && resident != b
        && (n->bc_writ[bidx] || n->bc_dirt[bidx])) {
        /* Evicting a read-write frame forces the L1 copies out. */
        drop_l1_copies(c, n, resident, -1);
        if (write_back(c, nid, resident, now) < 0)
            return -1;
    }
    n->bc_blocks[bidx] = b;
    n->bc_writ[bidx] = writable ? 1 : 0;
    n->bc_dirt[bidx] = writable ? 1 : 0;
    return 0;
}

/* SimulationEngine._block_cache_install, for dict-backed caches. */
static int
bc_install_py(Core *c, Node *n, Keys *k, int writable, long long now)
{
    PyObject *nowk = PyLong_FromLongLong(now);
    PyObject *args[5] = {n->node, bkey(k), gkey(k),
                         writable ? Py_True : Py_False, nowk};
    int rc = call0(c->engine, s_block_cache_install, args, 5);
    Py_XDECREF(nowk);
    return rc;
}

/* Any peer L1 (slots other than ``slot``) holding b, in any state. */
static int
peers_hold(Core *c, Node *n, int slot, int64_t b)
{
    for (int s = 0; s < c->n_slots; s++) {
        if (s == slot)
            continue;
        L1 *l = &n->l1[s];
        if (l->blocks[b & l->mask] == b)
            return 1;
    }
    return 0;
}

/* A peer L1 holding b in M/O/E (the canonical encoding makes that one
 * compare). */
static int
peer_supplies(Core *c, Node *n, int slot, int64_t b)
{
    for (int s = 0; s < c->n_slots; s++) {
        if (s == slot)
            continue;
        L1 *l = &n->l1[s];
        int64_t idx = b & l->mask;
        if (l->blocks[idx] == b && l->states[idx] >= EXCLUSIVE)
            return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* SimulationEngine._miss                                             */
/* ------------------------------------------------------------------ */

static int
miss_body(Core *c, int nid, int slot, Keys *k, int w, int st, long long now,
          long long *out)
{
    Node *n = &c->nodes[nid];
    int64_t b = k->b;
    long long mapping, lat = 0, v;
    int state;

    if (pmap_get(n, gkey(k), &mapping) < 0)
        return -1;
    if (mapping == MAP_UNMAPPED) {
        /* Page absent from the placement map: first-touch it here. */
        PyObject *nidk = PyLong_FromLong(nid);
        if (nidk == NULL)
            return -1;
        PyObject *r = PyObject_CallFunctionObjArgs(
            c->resolve_home, c->homes, k->gk, nidk, NULL);
        Py_DECREF(nidk);
        if (r == NULL)
            return -1;
        long long home;
        int rc = as_ll(r, &home);
        Py_DECREF(r);
        if (rc < 0)
            return -1;
        if (home == nid) {
            PyObject *args[1] = {k->gk};
            if (call0(n->page_table, s_map_local, args, 1) < 0)
                return -1;
            mapping = MAP_LOCAL;
        }
        else {
            PyObject *args[3] = {c->machine, n->node, k->gk};
            long long fault;
            if (call_ll(c->policy, s_on_page_fault, args, 3, &fault) < 0)
                return -1;
            lat += fault;
            if (pmap_get(n, k->gk, &mapping) < 0)
                return -1;
        }
    }

    /* Every miss is a bus transaction on the node's memory bus. */
    {
        long long occ = c->bus_occ, arrival = now + lat;
        long long start = n->bus.free_at;
        if (arrival > start)
            start = arrival;
        n->bus.free_at = start + occ;
        n->bus.busy += occ;
        n->bus.tx++;
        lat += start - arrival;
        now += lat;
    }

    if (!w) {
        /* -- read -------------------------------------------------- */
        state = SHARED;
        int supplied = 0;
        for (int s = 0; s < c->n_slots; s++) {
            /* MOESI snoop-read from a peer holding M/O/E: M -> O,
             * E -> S, O stays O; plain SHARED copies never respond. */
            if (s == slot)
                continue;
            L1 *l = &n->l1[s];
            int64_t idx = b & l->mask;
            if (l->blocks[idx] == b) {
                int pst = l->states[idx];
                if (pst == MODIFIED)
                    l->states[idx] = OWNED;
                else if (pst == EXCLUSIVE)
                    l->states[idx] = SHARED;
                else if (pst != OWNED)
                    continue;
                supplied = 1;
                break;
            }
        }
        if (supplied) {
            n->st[S_CACHE_TO_CACHE]++;
            n->st[S_LOCAL_FILLS]++;
            lat += c->local_fill;
        }
        else if (mapping == MAP_LOCAL) {
            /* Directory.home_read_access on the columns: a remote
             * exclusive owner is recalled and cleared. */
            Py_ssize_t ds;
            long long prev_owner = -1;
            if (dir_slot(c, k, &ds) < 0)
                return -1;
            if (ds >= 0) {
                if (list_ll(c->owners, ds, &prev_owner) < 0)
                    return -1;
                if (prev_owner == nid)
                    prev_owner = -1;
                else if (prev_owner >= 0
                         && list_set_ll(c->owners, ds, NO_OWNER) < 0)
                    return -1;
            }
            int r = set_contains(n->coh, bkey(k));
            if (r < 0)
                return -1;
            if (r) {
                n->st[S_COHERENCE_MISSES]++;
                if (PySet_Discard(n->coh, k->bk) < 0)
                    return -1;
            }
            if (prev_owner >= 0) {
                /* Recall the dirty copy from the remote owner. */
                long long rt;
                if (prev_owner >= c->n_nodes) {
                    PyErr_SetString(PyExc_IndexError, "owner node out of range");
                    return -1;
                }
                lat += c->remote_fetch;
                if (round_trip(c, nid, (int)prev_owner, now, 0, &rt) < 0)
                    return -1;
                lat += rt;
                if (downgrade_node(c, (int)prev_owner, k) < 0)
                    return -1;
                n->st[S_REMOTE_FETCHES]++;
            }
            else {
                lat += c->local_fill;
                n->st[S_LOCAL_FILLS]++;
            }
            /* Sole copy: no peer L1 holds it, the directory lists no
             * sharers. */
            if (!peers_hold(c, n, slot, b)) {
                if (ds < 0)
                    state = EXCLUSIVE;
                else {
                    if (list_ll(c->sharers, ds, &v) < 0)
                        return -1;
                    if (!v)
                        state = EXCLUSIVE;
                }
            }
        }
        else if (mapping == MAP_CC) {
            long long flags;
            if (n->has_cols) {
                int64_t bidx = b & n->bc_mask;
                if (n->bc_blocks[bidx] == b)
                    flags = n->bc_writ[bidx] | (n->bc_dirt[bidx] << 1);
                else
                    flags = -1;
            }
            else {
                PyObject *args[1] = {bkey(k)};
                if (call_ll(n->bc, s_probe, args, 1, &flags) < 0)
                    return -1;
            }
            if (flags >= 0) {
                n->st[S_BC_HITS]++;
                n->st[S_LOCAL_FILLS]++;
                lat += c->local_fill;
                if ((flags & 1) && !peers_hold(c, n, slot, b))
                    state = EXCLUSIVE;
            }
            else {
                long long rf;
                int scoma;
                n->st[S_BC_MISSES]++;
                if (remote_fetch(c, nid, k, 0, now, 0, &rf) < 0)
                    return -1;
                lat += rf;
                /* The policy may have relocated the page mid-fetch. */
                if (is_scoma(n, k, &scoma) < 0)
                    return -1;
                if (scoma) {
                    if (scoma_install(c, n, k, 0) < 0)
                        return -1;
                }
                else if (!n->has_cols) {
                    if (bc_install_py(c, n, k, 0, now) < 0)
                        return -1;
                }
                else if (bc_install_cols(c, nid, b, 0, now) < 0)
                    return -1;
            }
        }
        else {
            /* MAP_SCOMA */
            uint8_t *row;
            int tag;
            if (tag_row(n, k, &row) < 0)
                return -1;
            tag = row != NULL ? row[b & c->bpp_mask] : BLOCK_INVALID;
            if (tag != BLOCK_INVALID) {
                n->st[S_PC_HITS]++;
                n->st[S_LOCAL_FILLS]++;
                lat += c->local_fill;
                if (n->reorders_on_hit) {
                    PyObject *args[1] = {k->gk};
                    if (call0(n->pc, s_touch_hit, args, 1) < 0)
                        return -1;
                }
                if (tag == BLOCK_WRITABLE && !peers_hold(c, n, slot, b))
                    state = EXCLUSIVE;
            }
            else {
                long long rf;
                int scoma;
                n->st[S_PC_MISSES]++;
                if (remote_fetch(c, nid, k, 0, now, 0, &rf) < 0)
                    return -1;
                lat += rf;
                if (is_scoma(n, k, &scoma) < 0)
                    return -1;
                if (scoma && scoma_install(c, n, k, 0) < 0)
                    return -1;
            }
        }
    }
    else {
        /* -- write ------------------------------------------------- */
        state = MODIFIED;
        if (mapping == MAP_LOCAL) {
            /* Directory.home_write_access: every remote copy is
             * invalidated and cleared from was-held. */
            long long prev_owner = -1, inval = 0;
            Py_ssize_t ds = -1;
            if (c->dir_inline) {
                if (dir_slot(c, k, &ds) < 0)
                    return -1;
            }
            else {
                int r = bkey(k) != NULL ? PyDict_Contains(c->slots, k->bk) : -1;
                if (r < 0)
                    return -1;
                if (r) {
                    PyObject *nidk = PyLong_FromLong(nid);
                    PyObject *args[2] = {k->bk, nidk};
                    long long o;
                    int rc = call_ll(c->directory, s_home_write_access, args, 2, &o);
                    Py_XDECREF(nidk);
                    if (rc < 0)
                        return -1;
                    prev_owner = ((o >> OUT_OWNER_SHIFT) & OUT_OWNER_MASK) - 1;
                    inval = o >> OUT_INVAL_SHIFT;
                }
            }
            if (ds >= 0) {
                if (list_ll(c->owners, ds, &prev_owner) < 0)
                    return -1;
                if (prev_owner == nid)
                    prev_owner = -1;
                if (list_ll(c->sharers, ds, &v) < 0)
                    return -1;
                inval = v & ~(1LL << nid);
                if (list_set_ll(c->owners, ds, NO_OWNER) < 0
                    || list_set_ll(c->sharers, ds, 0) < 0
                    || list_set_ll(c->held, ds, 0) < 0)
                    return -1;
            }
            if (inval)
                n->st[S_INVALIDATIONS_SENT] +=
                    __builtin_popcountll((unsigned long long)inval);
            int r = set_contains(n->coh, bkey(k));
            if (r < 0)
                return -1;
            if (r) {
                n->st[S_COHERENCE_MISSES]++;
                if (PySet_Discard(n->coh, k->bk) < 0)
                    return -1;
            }
            if (inval || prev_owner >= 0) {
                /* Write-sharing traffic (Table 4's classification). */
                long long rt, target;
                if (or_mask(c->writers, gkey(k), 1LL << nid) < 0)
                    return -1;
                if (invalidate_mask(c, inval, k) < 0)
                    return -1;
                lat += c->remote_fetch;
                target = prev_owner >= 0
                             ? prev_owner
                             : __builtin_ctzll((unsigned long long)inval);
                if (target >= c->n_nodes) {
                    PyErr_SetString(PyExc_IndexError, "target node out of range");
                    return -1;
                }
                if (round_trip(c, nid, (int)target, now, 0, &rt) < 0)
                    return -1;
                lat += rt;
                n->st[S_REMOTE_FETCHES]++;
            }
            else if (st != INVALID) {
                lat += c->sram; /* local upgrade, no data transfer */
            }
            else {
                lat += c->local_fill;
                n->st[S_LOCAL_FILLS]++;
                if (peer_supplies(c, n, slot, b))
                    n->st[S_CACHE_TO_CACHE]++;
            }
        }
        else if (mapping == MAP_CC) {
            Py_ssize_t ds;
            long long owner = NO_OWNER;
            if (dir_slot(c, k, &ds) < 0)
                return -1;
            if (ds >= 0 && list_ll(c->owners, ds, &owner) < 0)
                return -1;
            if (ds >= 0 && owner == nid) {
                /* Node already has exclusive rights: intra-node
                 * service. */
                if (peer_supplies(c, n, slot, b)) {
                    n->st[S_CACHE_TO_CACHE]++;
                    n->st[S_LOCAL_FILLS]++;
                    lat += c->local_fill;
                }
                else if (st != INVALID) {
                    lat += c->sram;
                }
                else {
                    n->st[S_LOCAL_FILLS]++;
                    lat += c->local_fill;
                }
                if (n->has_cols) {
                    int64_t bidx = b & n->bc_mask;
                    if (n->bc_blocks[bidx] == b) {
                        n->bc_writ[bidx] = 1;
                        n->bc_dirt[bidx] = 1;
                    }
                }
                else {
                    PyObject *args[1] = {k->bk};
                    if (call0(n->bc, s_mark_dirty, args, 1) < 0)
                        return -1;
                }
            }
            else {
                int holds_copy, scoma;
                long long rf;
                if (st != INVALID)
                    holds_copy = 1;
                else if (n->has_cols)
                    holds_copy = n->bc_blocks[b & n->bc_mask] == b;
                else {
                    PyObject *args[1] = {bkey(k)};
                    long long flags;
                    if (call_ll(n->bc, s_probe, args, 1, &flags) < 0)
                        return -1;
                    holds_copy = flags >= 0;
                }
                if (!holds_copy)
                    n->st[S_BC_MISSES]++;
                if (remote_fetch(c, nid, k, 1, now, holds_copy, &rf) < 0)
                    return -1;
                lat += rf;
                if (is_scoma(n, k, &scoma) < 0)
                    return -1;
                if (scoma) {
                    if (scoma_install(c, n, k, 1) < 0)
                        return -1;
                }
                else if (!n->has_cols) {
                    if (bc_install_py(c, n, k, 1, now) < 0)
                        return -1;
                    PyObject *args[1] = {k->bk};
                    if (call0(n->bc, s_mark_dirty, args, 1) < 0)
                        return -1;
                }
                else if (bc_install_cols(c, nid, b, 1, now) < 0)
                    return -1;
            }
        }
        else {
            /* MAP_SCOMA */
            uint8_t *row;
            int tag;
            if (tag_row(n, k, &row) < 0)
                return -1;
            tag = row != NULL ? row[b & c->bpp_mask] : BLOCK_INVALID;
            if (tag == BLOCK_WRITABLE) {
                if (peer_supplies(c, n, slot, b)) {
                    n->st[S_CACHE_TO_CACHE]++;
                    n->st[S_LOCAL_FILLS]++;
                    lat += c->local_fill;
                }
                else if (st != INVALID) {
                    lat += c->sram;
                }
                else {
                    n->st[S_LOCAL_FILLS]++;
                    lat += c->local_fill;
                }
                n->st[S_PC_HITS]++;
                if (n->reorders_on_hit) {
                    PyObject *args[1] = {k->gk};
                    if (call0(n->pc, s_touch_hit, args, 1) < 0)
                        return -1;
                }
                if (tags_mark_dirty(c, n, k->gk, b) < 0)
                    return -1;
            }
            else {
                int holds_copy = st != INVALID || tag == BLOCK_READONLY;
                int scoma;
                long long rf;
                n->st[S_PC_MISSES]++;
                if (remote_fetch(c, nid, k, 1, now, holds_copy, &rf) < 0)
                    return -1;
                lat += rf;
                if (is_scoma(n, k, &scoma) < 0)
                    return -1;
                if (scoma) {
                    if (scoma_install(c, n, k, 1) < 0)
                        return -1;
                    if (tags_mark_dirty(c, n, k->gk, b) < 0)
                        return -1;
                }
            }
        }
        /* A write leaves this CPU's L1 as the only copy on the node. */
        drop_l1_copies(c, n, b, slot);
    }

    /* -- common tail: install into the requesting L1 ---------------- */
    {
        L1 *own = &n->l1[slot];
        int64_t idx = b & own->mask;
        int64_t vb = own->blocks[idx];
        if (vb >= 0 && vb != b && own->states[idx] >= OWNED) {
            /* Dirty victims (M/O) drain to the node's backing store. */
            int64_t vg = vb >> c->bps;
            long long vmapping;
            PyObject *vgk = PyLong_FromLongLong(vg);
            if (vgk == NULL)
                return -1;
            if (pmap_get(n, vgk, &vmapping) < 0) {
                Py_DECREF(vgk);
                return -1;
            }
            int rc = 0;
            if (vmapping == MAP_CC) {
                if (n->has_cols) {
                    int64_t vidx = vb & n->bc_mask;
                    if (n->bc_blocks[vidx] == vb) {
                        n->bc_writ[vidx] = 1;
                        n->bc_dirt[vidx] = 1;
                    }
                    else {
                        /* No block-cache frame: write straight home. */
                        rc = write_back(c, nid, vb, now);
                    }
                }
                else {
                    PyObject *vbk = PyLong_FromLongLong(vb);
                    PyObject *args[1] = {vbk};
                    PyObject *r = call(n->bc, s_mark_dirty, args, 1);
                    Py_XDECREF(vbk);
                    if (r == NULL)
                        rc = -1;
                    else {
                        int present = PyObject_IsTrue(r);
                        Py_DECREF(r);
                        if (present < 0)
                            rc = -1;
                        else if (!present)
                            rc = write_back(c, nid, vb, now);
                    }
                }
            }
            else if (vmapping == MAP_SCOMA) {
                rc = tags_mark_dirty(c, n, vgk, vb);
            }
            /* MAP_LOCAL: local memory absorbs the write-back. */
            Py_DECREF(vgk);
            if (rc < 0)
                return -1;
        }
        own->blocks[idx] = b;
        own->states[idx] = (uint8_t)state;
    }
    *out = lat;
    return 0;
}

static int
miss(Core *c, int nid, int slot, int64_t b, int w, int st, long long now,
     long long *out)
{
    Keys k = {b, b >> c->bps, NULL, NULL};
    int rc = miss_body(c, nid, slot, &k, w, st, now, out);
    if (rc == 0 && PyErr_Occurred())
        rc = -1; /* a lazily created key failed to allocate */
    keys_clear(&k);
    return rc;
}

/* ------------------------------------------------------------------ */
/* run-time set-up                                                    */
/* ------------------------------------------------------------------ */

static int
get_buffer(Core *c, PyObject *obj, Py_ssize_t itemsize, int writable,
           void **data, Py_ssize_t *len)
{
    Py_buffer *view = &c->bufs[c->n_bufs];
    int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    c->n_bufs++;
    if (view->itemsize != itemsize || view->ndim != 1
        || (itemsize == 8 && strcmp(view->format, "q") != 0 && strcmp(view->format, "l") != 0)) {
        PyErr_SetString(PyExc_TypeError, "unexpected column layout");
        return -1;
    }
    *data = view->buf;
    if (len != NULL)
        *len = view->len / itemsize;
    return 0;
}

static PyObject *
attr(PyObject *obj, const char *name)
{
    return PyObject_GetAttrString(obj, name);
}

static int
load_node(Core *c, Node *n, PyObject *node, int nid)
{
    PyObject *tmp;
    n->node = node;
    Py_INCREF(node);
    if ((n->stats = attr(node, "stats")) == NULL
        || (n->pmap = attr(node, "page_state")) == NULL
        || (n->page_table = attr(node, "page_table")) == NULL
        || (n->coh = attr(node, "coherence_lost")) == NULL
        || (n->tag_rows = attr(node, "tag_rows")) == NULL
        || (n->tags = attr(node, "tags")) == NULL
        || (n->bc = attr(node, "block_cache")) == NULL
        || (n->pc = attr(node, "page_cache")) == NULL
        || (n->bus_obj = attr(node, "bus")) == NULL)
        return -1;
    if (!PyDict_CheckExact(n->pmap) || !PyDict_CheckExact(n->tag_rows)
        || !PySet_CheckExact(n->coh)) {
        PyErr_SetString(PyExc_TypeError, "unexpected node state containers");
        return -1;
    }
    tmp = attr(n->pc, "reorders_on_hit");
    if (tmp == NULL)
        return -1;
    n->reorders_on_hit = PyObject_IsTrue(tmp);
    Py_DECREF(tmp);
    if (n->reorders_on_hit < 0)
        return -1;

    /* ni/rad BusyResources of this node */
    PyObject *nis = attr(c->network, "nis"), *rads = attr(c->network, "rads");
    if (nis == NULL || rads == NULL) {
        Py_XDECREF(nis);
        Py_XDECREF(rads);
        return -1;
    }
    n->ni_obj = PySequence_GetItem(nis, nid);
    n->rad_obj = PySequence_GetItem(rads, nid);
    Py_DECREF(nis);
    Py_DECREF(rads);
    if (n->ni_obj == NULL || n->rad_obj == NULL)
        return -1;

    tmp = attr(node, "bc_cols");
    if (tmp == NULL)
        return -1;
    if (tmp != Py_None) {
        PyObject *cols = PySequence_Tuple(tmp);
        Py_DECREF(tmp);
        if (cols == NULL)
            return -1;
        long long mask;
        int rc = -1;
        if (PyTuple_GET_SIZE(cols) == 4
            && as_ll(PyTuple_GET_ITEM(cols, 0), &mask) == 0
            && get_buffer(c, PyTuple_GET_ITEM(cols, 1), 8, 1, (void **)&n->bc_blocks, NULL) == 0
            && get_buffer(c, PyTuple_GET_ITEM(cols, 2), 1, 1, (void **)&n->bc_writ, NULL) == 0
            && get_buffer(c, PyTuple_GET_ITEM(cols, 3), 1, 1, (void **)&n->bc_dirt, NULL) == 0)
            rc = 0;
        Py_DECREF(cols);
        if (rc < 0) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "unexpected block-cache columns");
            return -1;
        }
        n->bc_mask = mask;
        n->has_cols = 1;
    }
    else {
        Py_DECREF(tmp);
    }

    PyObject *l1s = attr(node, "l1s");
    if (l1s == NULL)
        return -1;
    if (!PyList_Check(l1s) || PyList_GET_SIZE(l1s) != c->n_slots) {
        Py_DECREF(l1s);
        PyErr_SetString(PyExc_TypeError, "unexpected L1 list");
        return -1;
    }
    n->l1 = &c->l1_pool[nid * c->n_slots];
    for (int s = 0; s < c->n_slots; s++) {
        PyObject *l1 = PyList_GET_ITEM(l1s, s);
        long long mask;
        PyObject *blocks = attr(l1, "block_at"), *states = attr(l1, "state_at");
        int rc = -1;
        if (blocks != NULL && states != NULL
            && attr_ll_str(l1, "mask", &mask) == 0
            && get_buffer(c, blocks, 8, 1, (void **)&n->l1[s].blocks, NULL) == 0
            && get_buffer(c, states, 1, 1, (void **)&n->l1[s].states, NULL) == 0)
            rc = 0;
        Py_XDECREF(blocks);
        Py_XDECREF(states);
        if (rc < 0) {
            Py_DECREF(l1s);
            return -1;
        }
        n->l1[s].mask = mask;
    }
    Py_DECREF(l1s);
    return 0;
}

static void
free_core(Core *c)
{
    if (c->nodes != NULL) {
        for (int i = 0; i < c->n_nodes; i++) {
            Node *n = &c->nodes[i];
            Py_XDECREF(n->node);
            Py_XDECREF(n->stats);
            Py_XDECREF(n->pmap);
            Py_XDECREF(n->page_table);
            Py_XDECREF(n->coh);
            Py_XDECREF(n->tag_rows);
            Py_XDECREF(n->tags);
            Py_XDECREF(n->bc);
            Py_XDECREF(n->pc);
            Py_XDECREF(n->bus_obj);
            Py_XDECREF(n->ni_obj);
            Py_XDECREF(n->rad_obj);
        }
    }
    for (int i = 0; i < c->n_bufs; i++)
        PyBuffer_Release(&c->bufs[i]);
    PyMem_Free(c->bufs);
    PyMem_Free(c->nodes);
    PyMem_Free(c->l1_pool);
    PyMem_Free(c->cpus);
    Py_XDECREF(c->machine);
    Py_XDECREF(c->policy);
    Py_XDECREF(c->homes);
    Py_XDECREF(c->directory);
    Py_XDECREF(c->network);
    Py_XDECREF(c->slots);
    Py_XDECREF(c->owners);
    Py_XDECREF(c->sharers);
    Py_XDECREF(c->held);
    Py_XDECREF(c->requesters);
    Py_XDECREF(c->writers);
    Py_XDECREF(c->nodes_list);
    Py_XDECREF(c->columns);
}

static int
engine_ll(PyObject *engine, const char *name, long long *out)
{
    return attr_ll_str(engine, name, out);
}

static int
load_core(Core *c, PyObject *engine)
{
    long long v;
    PyObject *costs = NULL, *node_of = NULL, *cpu_slot = NULL;
    int rc = -1;
    c->engine = engine;
    if ((c->machine = attr(engine, "machine")) == NULL
        || (c->policy = attr(engine, "policy")) == NULL
        || (c->homes = attr(engine, "homes")) == NULL
        || (c->directory = attr(engine, "_directory")) == NULL
        || (c->network = attr(engine, "_network")) == NULL
        || (c->slots = attr(engine, "_dir_slots")) == NULL
        || (c->owners = attr(engine, "_dir_owners")) == NULL
        || (c->sharers = attr(engine, "_dir_sharers")) == NULL
        || (c->held = attr(engine, "_dir_held")) == NULL
        || (c->nodes_list = attr(engine, "_nodes")) == NULL
        || (c->columns = attr(engine, "_columns")) == NULL
        || (c->requesters = attr(c->machine, "page_requesters")) == NULL
        || (c->writers = attr(c->machine, "page_writers")) == NULL)
        goto done;
    if (!PyDict_CheckExact(c->homes) || !PyDict_CheckExact(c->slots)
        || !PyList_CheckExact(c->owners) || !PyList_CheckExact(c->sharers)
        || !PyList_CheckExact(c->held) || !PyList_Check(c->nodes_list)
        || !PyList_Check(c->columns) || !PyDict_CheckExact(c->requesters)
        || !PyDict_CheckExact(c->writers)) {
        PyErr_SetString(PyExc_TypeError, "unexpected engine state containers");
        goto done;
    }
    if (engine_ll(engine, "_dir_inline", &v) < 0)
        goto done;
    c->dir_inline = v != 0;
    if (engine_ll(engine, "_uniform_net", &v) < 0)
        goto done;
    c->uniform = v != 0;
    if (engine_ll(engine, "_net_latency", &c->net_latency) < 0
        || engine_ll(engine, "_ni_occ", &c->ni_occ) < 0
        || engine_ll(engine, "_rad_occ", &c->rad_occ) < 0)
        goto done;
    if (engine_ll(engine, "_block_shift", &v) < 0)
        goto done;
    c->block_shift = (int)v;
    if (engine_ll(engine, "_block_page_shift", &v) < 0)
        goto done;
    c->bps = (int)v;
    if (engine_ll(engine, "_bpp_mask", &v) < 0)
        goto done;
    c->bpp_mask = v;
    if ((costs = attr(engine, "_costs")) == NULL
        || attr_ll_str(costs, "bus_occupancy", &c->bus_occ) < 0
        || attr_ll_str(costs, "local_fill", &c->local_fill) < 0
        || attr_ll_str(costs, "remote_fetch", &c->remote_fetch) < 0
        || attr_ll_str(costs, "sram_access", &c->sram) < 0
        || attr_ll_str(costs, "invalidate_per_sharer", &c->inv_per_sharer) < 0
        || attr_ll_str(costs, "barrier_cost", &c->barrier_cost) < 0)
        goto done;

    c->n_nodes = (int)PyList_GET_SIZE(c->nodes_list);
    c->n_cpus = (int)PyList_GET_SIZE(c->columns);
    if (c->n_nodes < 1 || c->n_nodes > MAX_NODES) {
        PyErr_SetString(PyExc_ValueError, "native core supports 1..63 nodes");
        goto done;
    }
    {
        PyObject *l1s = attr(PyList_GET_ITEM(c->nodes_list, 0), "l1s");
        if (l1s == NULL)
            goto done;
        c->n_slots = (int)PyObject_Length(l1s);
        Py_DECREF(l1s);
        if (c->n_slots < 1) {
            PyErr_SetString(PyExc_ValueError, "node without processors");
            goto done;
        }
    }
    c->nodes = PyMem_Calloc(c->n_nodes, sizeof(Node));
    c->l1_pool = PyMem_Calloc((size_t)c->n_nodes * c->n_slots, sizeof(L1));
    c->cpus = PyMem_Calloc(c->n_cpus ? c->n_cpus : 1, sizeof(Cpu));
    c->bufs = PyMem_Calloc(
        (size_t)c->n_cpus + (size_t)c->n_nodes * (2 * c->n_slots + 3) + 1,
        sizeof(Py_buffer));
    if (c->nodes == NULL || c->l1_pool == NULL || c->cpus == NULL
        || c->bufs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int i = 0; i < c->n_nodes; i++)
        if (load_node(c, &c->nodes[i], PyList_GET_ITEM(c->nodes_list, i), i) < 0)
            goto done;

    if ((node_of = attr(engine, "_node_of_cpu")) == NULL
        || (cpu_slot = attr(engine, "_cpu_slot")) == NULL)
        goto done;
    for (int i = 0; i < c->n_cpus; i++) {
        Cpu *cp = &c->cpus[i];
        long long nd, sl;
        PyObject *a = PySequence_GetItem(node_of, i), *b = PySequence_GetItem(cpu_slot, i);
        int bad = a == NULL || b == NULL || as_ll(a, &nd) < 0 || as_ll(b, &sl) < 0;
        Py_XDECREF(a);
        Py_XDECREF(b);
        if (bad)
            goto done;
        if (nd < 0 || nd >= c->n_nodes || sl < 0 || sl >= c->n_slots) {
            PyErr_SetString(PyExc_ValueError, "cpu wiring out of range");
            goto done;
        }
        cp->node = (int)nd;
        cp->slot = (int)sl;
        if (get_buffer(c, PyList_GET_ITEM(c->columns, i), 8, 0,
                       (void **)&cp->trace, &cp->len) < 0)
            goto done;
    }

    for (int i = 0; i < c->n_nodes; i++) {
        Node *n = &c->nodes[i];
        if (busy_load(n->bus_obj, &n->bus) < 0 || busy_load(n->ni_obj, &n->ni) < 0
            || busy_load(n->rad_obj, &n->rad) < 0)
            goto done;
    }
    c->mirrors_loaded = 1;
    rc = 0;
done:
    Py_XDECREF(costs);
    Py_XDECREF(node_of);
    Py_XDECREF(cpu_slot);
    return rc;
}

/* ------------------------------------------------------------------ */
/* the drain loop                                                     */
/* ------------------------------------------------------------------ */

/* Binary min-heap of packed events ``time * n_cpus + cpu``.  Events
 * are distinct (one per cpu), so any correct heap pops the same
 * sequence as heapq. */
static void
heap_sift_down(int64_t *h, Py_ssize_t n, Py_ssize_t i)
{
    int64_t x = h[i];
    for (;;) {
        Py_ssize_t l = 2 * i + 1;
        if (l >= n)
            break;
        Py_ssize_t m = (l + 1 < n && h[l + 1] < h[l]) ? l + 1 : l;
        if (h[m] >= x)
            break;
        h[i] = h[m];
        i = m;
    }
    h[i] = x;
}

static void
heap_push(int64_t *h, Py_ssize_t *n, int64_t x)
{
    Py_ssize_t i = (*n)++;
    while (i > 0) {
        Py_ssize_t p = (i - 1) / 2;
        if (h[p] <= x)
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = x;
}

static int64_t
heap_pop(int64_t *h, Py_ssize_t *n)
{
    int64_t top = h[0];
    (*n)--;
    if (*n > 0) {
        h[0] = h[*n];
        heap_sift_down(h, *n, 0);
    }
    return top;
}

/* Record a barrier arrival; returns the arrivals list (borrowed). */
static PyObject *
arrive(PyObject *arrivals_by_id, int64_t ident, long long t, int cpu)
{
    PyObject *key = PyLong_FromLongLong(ident);
    if (key == NULL)
        return NULL;
    PyObject *lst = PyDict_GetItemWithError(arrivals_by_id, key);
    if (lst == NULL) {
        if (PyErr_Occurred() || (lst = PyList_New(0)) == NULL
            || PyDict_SetItem(arrivals_by_id, key, lst) < 0) {
            Py_XDECREF(lst);
            Py_DECREF(key);
            return NULL;
        }
        Py_DECREF(lst); /* the dict holds it */
    }
    Py_DECREF(key);
    PyObject *entry = Py_BuildValue("(Li)", t, cpu);
    if (entry == NULL || PyList_Append(lst, entry) < 0) {
        Py_XDECREF(entry);
        return NULL;
    }
    Py_DECREF(entry);
    return lst;
}

static PyObject *
list_of(long long *v, int n)
{
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *o = PyLong_FromLongLong(v[i]);
        if (o == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, o);
    }
    return out;
}

/* One access of the drain loop: hit inline, miss through miss().
 * Sets *nt to the cpu's next event time. */
#define ACCESS(word, t_in, nt)                                             \
    do {                                                                   \
        int64_t b_ = (word) >> block_unpack;                               \
        int64_t idx_ = b_ & lmask;                                         \
        int w_ = (int)((word) & 1);                                        \
        long long think_ = ((word) >> 1) & THINK_MASK;                     \
        int st_;                                                           \
        if (blocks[idx_] == b_                                             \
            && (!w_ || (st_ = states[idx_]) >= MODIFIED                    \
                || st_ == EXCLUSIVE)) {                                    \
            if (w_ && states[idx_] == EXCLUSIVE)                           \
                states[idx_] = MODIFIED;                                   \
            (nt) = (t_in) + think_ + 1;                                    \
        }                                                                  \
        else {                                                             \
            long long now_ = (t_in) + think_, lat_;                        \
            st_ = blocks[idx_] == b_ ? states[idx_] : INVALID;             \
            if (miss(c, nid, slot, b_, w_, st_, now_, &lat_) < 0)          \
                goto error;                                                \
            misses[nid]++;                                                 \
            stall[nid] += lat_;                                            \
            (nt) = now_ + 1 + lat_;                                        \
        }                                                                  \
    } while (0)

static PyObject *
core_run(PyObject *self, PyObject *args)
{
    PyObject *engine, *resolve_home;
    Core core, *c = &core;
    PyObject *result = NULL, *arrivals_by_id = NULL;
    long long *finish = NULL, *misses = NULL, *stall = NULL;
    int64_t *heap = NULL;

    if (!PyArg_ParseTuple(args, "OO:run", &engine, &resolve_home))
        return NULL;
    memset(c, 0, sizeof(core));
    c->resolve_home = resolve_home;
    if (load_core(c, engine) < 0)
        goto error;

    int n_cpus = c->n_cpus;
    int block_unpack = ADDR_SHIFT + c->block_shift;
    finish = PyMem_Calloc(n_cpus ? n_cpus : 1, sizeof(long long));
    misses = PyMem_Calloc(c->n_nodes, sizeof(long long));
    stall = PyMem_Calloc(c->n_nodes, sizeof(long long));
    heap = PyMem_Calloc(n_cpus ? n_cpus : 1, sizeof(int64_t));
    arrivals_by_id = PyDict_New();
    if (finish == NULL || misses == NULL || stall == NULL || heap == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    if (arrivals_by_id == NULL)
        goto error;

    Py_ssize_t heap_n = 0;
    for (int i = 1; i < n_cpus; i++)
        heap[heap_n++] = i; /* (t=0, cpu=i) encodes as i: already a heap */
    long long t = 0;
    int cpu = 0;
    long long yields = 0, rare_pops = 0, barrier_pushes = 0;
    int running = n_cpus > 0;

    while (running) {
        Cpu *cp = &c->cpus[cpu];
        int nid = cp->node, slot = cp->slot;
        L1 *own = &c->nodes[nid].l1[slot];
        int64_t lmask = own->mask, *blocks = own->blocks;
        uint8_t *states = own->states;
        int64_t *trace = cp->trace;
        Py_ssize_t len = cp->len, pos = cp->pos;

        if (heap_n == 0) {
            /* Everyone else is parked or done: nothing can preempt. */
            for (;;) {
                if (pos >= len) {
                    finish[cpu] = t;
                    running = 0;
                    break;
                }
                int64_t word = trace[pos++];
                if (word < 0) {
                    int64_t ident = -1 - word;
                    PyObject *lst = arrive(arrivals_by_id, ident, t, cpu);
                    if (lst == NULL)
                        goto error;
                    if (PyList_GET_SIZE(lst) == n_cpus) {
                        long long release = 0;
                        for (Py_ssize_t i = 0; i < n_cpus; i++) {
                            long long at;
                            if (as_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(lst, i), 0), &at) < 0)
                                goto error;
                            if (i == 0 || at > release)
                                release = at;
                        }
                        release += c->barrier_cost;
                        int64_t base = release * n_cpus;
                        for (Py_ssize_t i = 0; i < n_cpus; i++) {
                            PyObject *e = PyList_GET_ITEM(lst, i);
                            long long at, c2;
                            if (as_ll(PyTuple_GET_ITEM(e, 0), &at) < 0
                                || as_ll(PyTuple_GET_ITEM(e, 1), &c2) < 0)
                                goto error;
                            c->nodes[c->cpus[c2].node].st[S_BARRIER_WAIT] += release - at;
                            heap_push(heap, &heap_n, base + c2);
                        }
                        barrier_pushes += n_cpus;
                        PyObject *key = PyLong_FromLongLong(ident);
                        if (key == NULL || PyDict_DelItem(arrivals_by_id, key) < 0) {
                            Py_XDECREF(key);
                            goto error;
                        }
                        Py_DECREF(key);
                        PyObject *mstats = PyObject_GetAttr(c->machine, s_stats);
                        if (mstats == NULL)
                            goto error;
                        int rc = add_attr_ll(mstats, s_barriers_crossed, 1);
                        Py_DECREF(mstats);
                        if (rc < 0)
                            goto error;
                        cp->pos = pos;
                        int64_t ev = heap_pop(heap, &heap_n);
                        t = ev / n_cpus;
                        cpu = (int)(ev % n_cpus);
                        rare_pops++;
                    }
                    else {
                        running = 0;
                    }
                    break;
                }
                long long nt;
                ACCESS(word, t, nt);
                t = nt;
            }
            cp->pos = pos;
            continue;
        }

        int64_t head = heap[0];
        for (;;) {
            if (pos >= len) {
                /* Trace exhausted: the cpu retires at its clock. */
                finish[cpu] = t;
                cp->pos = pos;
                int64_t ev = heap_pop(heap, &heap_n);
                t = ev / n_cpus;
                cpu = (int)(ev % n_cpus);
                rare_pops++;
                break;
            }
            int64_t word = trace[pos++];
            if (word < 0) {
                /* Barrier: park until everyone arrives (it cannot
                 * complete here: the heap holds cpus yet to arrive). */
                if (arrive(arrivals_by_id, -1 - word, t, cpu) == NULL)
                    goto error;
                cp->pos = pos;
                int64_t ev = heap_pop(heap, &heap_n);
                t = ev / n_cpus;
                cpu = (int)(ev % n_cpus);
                rare_pops++;
                break;
            }
            long long nt;
            ACCESS(word, t, nt);
            int64_t ev = (int64_t)nt * n_cpus + cpu;
            if (ev < head) {
                t = nt; /* still the earliest event: run ahead */
                continue;
            }
            cp->pos = pos;
            int64_t top = heap[0];
            heap[0] = ev;
            heap_sift_down(heap, heap_n, 0);
            t = top / n_cpus;
            cpu = (int)(top % n_cpus);
            yields++;
            break;
        }
    }

    if (flush_mirrors(c) < 0)
        goto error;
    {
        PyObject *f = list_of(finish, n_cpus), *m = list_of(misses, c->n_nodes),
                 *s = list_of(stall, c->n_nodes);
        if (f != NULL && m != NULL && s != NULL)
            result = Py_BuildValue("(NNNLLLO)", f, m, s, yields, rare_pops,
                                   barrier_pushes, arrivals_by_id);
        else {
            Py_XDECREF(f);
            Py_XDECREF(m);
            Py_XDECREF(s);
        }
    }
    goto done;
error:
    flush_mirrors(c);
done:
    free_core(c);
    PyMem_Free(finish);
    PyMem_Free(misses);
    PyMem_Free(stall);
    PyMem_Free(heap);
    Py_XDECREF(arrivals_by_id);
    return result;
}

static PyMethodDef core_methods[] = {
    {"run", core_run, METH_VARARGS,
     "run(engine, resolve_home) -> (finish, misses, stall, yields, "
     "rare_pops, barrier_pushes, barrier_arrivals)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core",
    "Compiled drain loop and miss path of the run-ahead engine.", -1,
    core_methods,
};

#define INTERN(var, text)                                                  \
    do {                                                                   \
        if ((var = PyUnicode_InternFromString(text)) == NULL)              \
            return NULL;                                                   \
    } while (0)

PyMODINIT_FUNC
PyInit__core(void)
{
    for (int i = 0; i < N_STATS; i++)
        INTERN(stat_str[i], stat_names[i]);
    INTERN(s_free_at, "free_at");
    INTERN(s_busy_cycles, "busy_cycles");
    INTERN(s_transactions, "transactions");
    INTERN(s_messages, "messages");
    INTERN(s_round_trips, "round_trips");
    INTERN(s_stats, "stats");
    INTERN(s_barriers_crossed, "barriers_crossed");
    INTERN(s_on_page_fault, "on_page_fault");
    INTERN(s_on_refetch, "on_refetch");
    INTERN(s_record_refetch, "record_refetch");
    INTERN(s_map_local, "map_local");
    INTERN(s_touch_hit, "touch_hit");
    INTERN(s_touch_miss, "touch_miss");
    INTERN(s_set, "set");
    INTERN(s_mark_dirty, "mark_dirty");
    INTERN(s_clear_dirty, "clear_dirty");
    INTERN(s_probe, "probe");
    INTERN(s_invalidate_probe, "invalidate_probe");
    INTERN(s_downgrade, "downgrade");
    INTERN(s_writeback, "writeback");
    INTERN(s_read_request, "read_request");
    INTERN(s_write_request, "write_request");
    INTERN(s_home_write_access, "home_write_access");
    INTERN(s_one_way_delay, "one_way_delay");
    INTERN(s_traverse, "_traverse");
    INTERN(s_block_cache_install, "_block_cache_install");

    PyObject *m = PyModule_Create(&core_module);
    if (m == NULL)
        return NULL;
    PyObject *consts = Py_BuildValue(
        "{s:(iiiii),s:(iiii),s:(iii),s:i,s:L,s:i,s:i,s:i}",
        "moesi", INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED,
        "mapping", MAP_UNMAPPED, MAP_LOCAL, MAP_CC, MAP_SCOMA,
        "tags", BLOCK_INVALID, BLOCK_READONLY, BLOCK_WRITABLE,
        "addr_shift", ADDR_SHIFT,
        "think_mask", (long long)THINK_MASK,
        "out_inval_shift", OUT_INVAL_SHIFT,
        "max_nodes", MAX_NODES,
        "empty", EMPTY);
    if (consts == NULL || PyModule_AddObject(m, "CONSTANTS", consts) < 0) {
        Py_XDECREF(consts);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
