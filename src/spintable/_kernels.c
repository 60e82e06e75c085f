/* Compiled belief-propagation kernel.
 *
 * One function advances the dense survivor table by one round for a slice
 * [t0, t1) of the m^n states and returns how many states it marked live:
 *
 *     dst[t] = OR over generators g of src[pinv[g, u(t)]],
 *     u(t)   = encode(decode(t) - move).
 *
 * No per-move table exists: u(t) is t ^ code when m = 2.  Otherwise states
 * come in blocks of at most BLOCK_MAX whose high digits agree, and u's are
 * decoded once per block (mixed-radix arithmetic, Knuth, TAOCP 4A 7.2.1.1).
 * Within a block u runs in order, so pinv is read sequentially as a
 * precomposed table would be, and the state t = u + move it decides takes
 * its low digits from an offset table that each call builds by outer sums.
 * Each state stops at its first live predecessor, with the GIL released, so
 * the caller can split the state space over threads.
 *
 * Arguments are read through the buffer protocol, so the module needs neither
 * Cython nor the NumPy headers.  Every call checks item types, dimensions,
 * C-contiguity, agreeing shapes, m^len(move) == size, move entries in [0, m)
 * and the slice bounds, and raises TypeError or ValueError before it reads or
 * writes anything; writes stay inside [t0, t1).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define BLOCK_MAX 4096  /* most states in a block */

/* Acquire a C-contiguous buffer of `ndim` dimensions whose items are
 * integers of `itemsize` bytes, unsigned when `unsign` is set.  Returns 0, or
 * -1 with an exception set and nothing held. */
static int
get_array(PyObject *obj, Py_buffer *view, const char *name, int ndim,
          Py_ssize_t itemsize, int unsign, int writable)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *format = view->format ? view->format : "B", *fmt = format;
    if (*fmt == '@' || *fmt == '=')
        fmt++;
    if (view->itemsize != itemsize || strlen(fmt) != 1
        || !strchr(unsign ? "BHILQN" : "bhilqn", *fmt)) {
        PyErr_Format(PyExc_TypeError, "%s must hold %s%zd-bit integers, not format '%s'",
                     name, unsign ? "unsigned " : "", itemsize * 8, format);
        goto fail;
    }
    if (view->ndim != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must have %d dimension(s), not %d",
                     name, ndim, view->ndim);
        goto fail;
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
        goto fail;
    }
    if (writable && view->readonly) {
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
        goto fail;
    }
    return 0;
fail:
    PyBuffer_Release(view);
    return -1;
}

/* Whether any generator's predecessor in column col of pinv is live.  Entries
 * are trusted to lie in [0, size): checking each would cost a third of the
 * kernel's time. */
static inline uint8_t
any_live(const uint8_t *src, const int32_t *col, Py_ssize_t G, Py_ssize_t size)
{
    for (Py_ssize_t g = 0; g < G; g++)
        if (src[col[g * size]])
            return 1;
    return 0;
}

/* m = 2: u(t) = t ^ code. */
static Py_ssize_t
loop_xor(const uint8_t *src, uint8_t *dst, const int32_t *pinv,
         const int32_t *move, Py_ssize_t n, Py_ssize_t G, Py_ssize_t size,
         Py_ssize_t t0, Py_ssize_t t1)
{
    Py_ssize_t live = 0, code = 0;
    for (Py_ssize_t i = n - 1; i >= 0; i--)
        code = 2 * code + move[i];
    for (Py_ssize_t t = t0; t < t1; t++) {
        uint8_t v = any_live(src, pinv + (t ^ code), G, size);
        dst[t] = v;
        live += v;
    }
    return live;
}

/* Any other m: u walks blocks of states in order, as the header describes. */
static Py_ssize_t
loop_blocks(const uint8_t *src, uint8_t *dst, const int32_t *pinv,
            const int32_t *move, Py_ssize_t n, Py_ssize_t m, Py_ssize_t G,
            Py_ssize_t size, Py_ssize_t t0, Py_ssize_t t1)
{
    Py_ssize_t live = 0;
    if (t0 >= t1)
        return 0;
    /* Blocks of m^k <= BLOCK_MAX states share their high digits.  For the
     * low digits ul of u, add[ul] holds those of t = u + move.  It is built
     * one position at a time by outer sums: digit d of position i shifts
     * every earlier entry by ((d + move[i]) mod m) * m^i. */
    int32_t add[BLOCK_MAX];
    Py_ssize_t k = 0, block = 1;
    add[0] = 0;
    while (k < n && block * m <= BLOCK_MAX) {
        for (Py_ssize_t d = m - 1; d >= 0; d--) {
            Py_ssize_t digit = d + move[k] < m ? d + move[k] : d + move[k] - m;
            int32_t shift = (int32_t)(digit * block);
            for (Py_ssize_t j = 0; j < block; j++)
                add[d * block + j] = add[j] + shift;
        }
        k++;
        block *= m;
    }
    for (Py_ssize_t hi = t0 / block; hi * block < t1; hi++) {
        /* u's high digits are t's minus the move's, decoded once per block. */
        Py_ssize_t base = 0, weight = block, rest = hi;
        for (Py_ssize_t i = k; i < n; i++) {
            Py_ssize_t digit = rest % m - move[i];
            rest /= m;
            base += (digit < 0 ? digit + m : digit) * weight;
            weight *= m;
        }
        /* u runs through its block in order, so each generator's row of pinv
         * is read sequentially, as a precomposed table would be. */
        Py_ssize_t tb = hi * block;
        uint8_t *out = dst + tb;
        const int32_t *cols = pinv + base;
        if (tb >= t0 && tb + block <= t1) {
            for (Py_ssize_t ul = 0; ul < block; ul++) {
                uint8_t v = any_live(src, cols + ul, G, size);
                out[add[ul]] = v;
                live += v;
            }
        } else {
            /* A block the slice cuts: decide only the states inside it. */
            size_t lo = (size_t)(t0 > tb ? t0 - tb : 0);
            size_t span = (size_t)((t1 < tb + block ? t1 : tb + block) - tb) - lo;
            for (Py_ssize_t ul = 0; ul < block; ul++) {
                if ((size_t)add[ul] - lo < span) {
                    uint8_t v = any_live(src, cols + ul, G, size);
                    out[add[ul]] = v;
                    live += v;
                }
            }
        }
    }
    return live;
}

static PyObject *
advance(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kw[] = {"src", "dst", "pinv", "move", "m", "t0", "t1", NULL};
    PyObject *o[4];
    Py_ssize_t m, t0, t1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOnnn:advance", kw,
                                     &o[0], &o[1], &o[2], &o[3], &m, &t0, &t1))
        return NULL;

    /* name, dimensions, item bytes, unsigned, writable */
    static const struct { const char *name; int ndim, size, unsign, writable; } want[4] = {
        {"src", 1, 1, 1, 0}, {"dst", 1, 1, 1, 1}, {"pinv", 2, 4, 0, 0}, {"move", 1, 4, 0, 0}};
    Py_buffer v[4];
    Py_ssize_t live = -1;
    int held = 0;
    for (; held < 4; held++)
        if (get_array(o[held], &v[held], want[held].name, want[held].ndim, want[held].size,
                      want[held].unsign, want[held].writable) < 0)
            goto fail;

    Py_ssize_t size = v[1].shape[0], G = v[2].shape[0], n = v[3].shape[0];
    const int32_t *move = v[3].buf;
    Py_ssize_t states = 1, bad = -1;
    for (Py_ssize_t i = 0; m >= 1 && i < n && states <= size; i++)
        states = states <= size / m ? states * m : size + 1;
    for (Py_ssize_t i = 0; i < n && bad < 0; i++)
        bad = move[i] < 0 || move[i] >= m ? i : -1;
    if (v[0].shape[0] != size || v[2].shape[1] != size)
        PyErr_Format(PyExc_ValueError, "src, dst and pinv must cover the same %zd states", size);
    else if (m < 1 || states != size)
        PyErr_Format(PyExc_ValueError, "need m >= 1 and m**len(move) == %zd states, "
                     "got m=%zd, len(move)=%zd", size, m, n);
    else if (bad >= 0)
        PyErr_Format(PyExc_ValueError, "move entries must lie in [0, %zd), got %d",
                     m, (int)move[bad]);
    else if (t0 < 0 || t0 > t1 || t1 > size)
        PyErr_Format(PyExc_ValueError, "need 0 <= t0 <= t1 <= %zd, got t0=%zd, t1=%zd",
                     size, t0, t1);
    else {
        Py_BEGIN_ALLOW_THREADS
        live = m == 2 ? loop_xor(v[0].buf, v[1].buf, v[2].buf, move, n, G, size, t0, t1)
                      : loop_blocks(v[0].buf, v[1].buf, v[2].buf, move, n, m, G, size, t0, t1);
        Py_END_ALLOW_THREADS
    }
fail:
    while (held > 0)
        PyBuffer_Release(&v[--held]);
    return live < 0 ? NULL : PyLong_FromSsize_t(live);
}

static PyMethodDef methods[] = {
    {"advance", (PyCFunction)(void (*)(void))advance, METH_VARARGS | METH_KEYWORDS,
     "advance(src, dst, pinv, move, m, t0, t1)\n--\n\n"
     "dst[t] = OR_g src[pinv[g, u(t)]] for t in [t0, t1), where\n"
     "u(t) = encode(decode(t) - move).  Returns the number of live states\n"
     "written."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "spintable._kernels",
    "Compiled belief-propagation kernel (see _kernels.c).", -1, methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "NAME", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
