/* Compiled belief-propagation kernel.
 *
 * Two functions, one contract: each call advances the dense survivor table
 * by one round for a slice [t0, t1) of the state space.  step reads a
 * precomposed inverse transition table for this round's move, dst[t] = OR
 * over generators g of src[comp[g, t]]; step_indirect composes it on the
 * fly, dst[t] = OR_g src[pinv[g, ainv[t]]].  Each loop stops at the first
 * live predecessor and runs with the GIL released, so the caller can split
 * the state space over threads.
 *
 * Arguments are read through the buffer protocol, so the module needs neither
 * Cython nor the NumPy headers.  Every call checks item types, dimensions,
 * C-contiguity, that the shapes agree and the slice bounds, and raises
 * TypeError or ValueError before it reads or writes anything; writes stay
 * inside [t0, t1).  _kernels_py.py is the NumPy fallback with the same
 * contract.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

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

static void
release(Py_buffer *views, int count)
{
    for (int i = 0; i < count; i++)
        PyBuffer_Release(&views[i]);
}

/* Loops.  Table entries are trusted to lie in [0, size), as TransitionTables
 * builds them: checking each gather would cost a third of the kernel's time. */

static void
loop_step(const uint8_t *src, uint8_t *dst, const int32_t *comp,
          Py_ssize_t G, Py_ssize_t size, Py_ssize_t t0, Py_ssize_t t1)
{
    for (Py_ssize_t t = t0; t < t1; t++) {
        uint8_t v = 0;
        for (Py_ssize_t g = 0; g < G; g++) {
            if (src[comp[g * size + t]]) {
                v = 1;
                break;
            }
        }
        dst[t] = v;
    }
}

static void
loop_indirect(const uint8_t *src, uint8_t *dst, const int32_t *pinv,
              const int32_t *ainv, Py_ssize_t G, Py_ssize_t size,
              Py_ssize_t t0, Py_ssize_t t1)
{
    for (Py_ssize_t t = t0; t < t1; t++) {
        const int32_t *col = pinv + ainv[t];
        uint8_t v = 0;
        for (Py_ssize_t g = 0; g < G; g++) {
            if (src[col[g * size]]) {
                v = 1;
                break;
            }
        }
        dst[t] = v;
    }
}

/* Shared body of both functions: buffers are [src, dst, comp] for step and
 * [src, dst, pinv, ainv] for step_indirect. */
static PyObject *
run(int indirect, PyObject *const objs[], Py_ssize_t t0, Py_ssize_t t1)
{
    Py_buffer v[4];
    int held = 0;
    const char *table = indirect ? "pinv" : "comp";

    if (get_array(objs[0], &v[held], "src", 1, 1, 1, 0) < 0) goto fail;
    held++;
    if (get_array(objs[1], &v[held], "dst", 1, 1, 1, 1) < 0) goto fail;
    held++;
    if (get_array(objs[2], &v[held], table, 2, 4, 0, 0) < 0) goto fail;
    held++;
    if (indirect) {
        if (get_array(objs[3], &v[held], "ainv", 1, 4, 0, 0) < 0) goto fail;
        held++;
    }

    Py_ssize_t size = v[1].shape[0], G = v[2].shape[0];
    if (v[0].shape[0] != size || v[2].shape[1] != size
        || (indirect && v[3].shape[0] != size)) {
        PyErr_Format(PyExc_ValueError,
                     "src, dst and %s must cover the same %zd states", table, size);
        goto fail;
    }
    if (t0 < 0 || t0 > t1 || t1 > size) {
        PyErr_Format(PyExc_ValueError,
                     "need 0 <= t0 <= t1 <= %zd, got t0=%zd, t1=%zd", size, t0, t1);
        goto fail;
    }

    const uint8_t *src = v[0].buf;
    uint8_t *dst = v[1].buf;
    const int32_t *tab = v[2].buf;
    Py_BEGIN_ALLOW_THREADS
    if (indirect)
        loop_indirect(src, dst, tab, v[3].buf, G, size, t0, t1);
    else
        loop_step(src, dst, tab, G, size, t0, t1);
    Py_END_ALLOW_THREADS
    release(v, held);
    Py_RETURN_NONE;
fail:
    release(v, held);
    return NULL;
}

static PyObject *
step(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kw[] = {"src", "dst", "comp", "t0", "t1", NULL};
    PyObject *o[3];
    Py_ssize_t t0, t1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOnn:step", kw,
                                     &o[0], &o[1], &o[2], &t0, &t1))
        return NULL;
    return run(0, o, t0, t1);
}

static PyObject *
step_indirect(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kw[] = {"src", "dst", "pinv", "ainv", "t0", "t1", NULL};
    PyObject *o[4];
    Py_ssize_t t0, t1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOnn:step_indirect", kw,
                                     &o[0], &o[1], &o[2], &o[3], &t0, &t1))
        return NULL;
    return run(1, o, t0, t1);
}

static PyMethodDef methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_VARARGS | METH_KEYWORDS,
     "step(src, dst, comp, t0, t1)\n--\n\n"
     "dst[t] = OR_g src[comp[g, t]] for t in [t0, t1)."},
    {"step_indirect", (PyCFunction)(void (*)(void))step_indirect, METH_VARARGS | METH_KEYWORDS,
     "step_indirect(src, dst, pinv, ainv, t0, t1)\n--\n\n"
     "Like step, but composes the round table on the fly:\n"
     "dst[t] = OR_g src[pinv[g, ainv[t]]].  Used for moves that are not worth\n"
     "caching a composed table for."},
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
