/* Compiled finite-field stream kernel with the contract of
 * smdc.gf.matmul_python: an (rows x cols) matrix product over GF(2^e)
 * applied to cols byte-streams of length n, by doubled antilog tables. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

static PyObject *matmul(PyObject *self, PyObject *args)
{
    Py_buffer mat, src, exp, log;
    Py_ssize_t rows, cols, n, r, c, i, max_log = 0;
    PyObject *out = NULL;
    if (!PyArg_ParseTuple(args, "y*nny*ny*y*", &mat, &rows, &cols, &src, &n, &exp, &log))
        return NULL;
    const unsigned char *m = mat.buf, *s = src.buf, *lg = log.buf;
    const char *bad = NULL;
    if (rows < 0 || cols < 0 || n < 0 || (cols && rows > PY_SSIZE_T_MAX / cols)
        || (cols && n > PY_SSIZE_T_MAX / cols) || (n && rows > PY_SSIZE_T_MAX / n)
        || mat.len != rows * cols || src.len != cols * n)
        bad = "buffer lengths do not match the shape";
    for (i = 0; i < log.len; i++)
        max_log = lg[i] > max_log ? lg[i] : max_log;
    if (!bad && 2 * max_log >= exp.len)
        bad = "exp table too short for the log table";
    for (i = 0; !bad && i < mat.len; i++)
        if (m[i] >= log.len) bad = "coefficient outside the log table";
    for (i = 0; !bad && log.len < 256 && i < src.len; i++)
        if (s[i] >= log.len) bad = "stream byte outside the log table";
    if (bad) {
        PyErr_SetString(PyExc_ValueError, bad);
        goto done;
    }
    if (!(out = PyBytes_FromStringAndSize(NULL, rows * n)))
        goto done;
    unsigned char *o = (unsigned char *)PyBytes_AS_STRING(out);
    memset(o, 0, rows * n);
    for (r = 0; r < rows; r++, o += n)
        for (c = 0; c < cols; c++) {
            unsigned char coef = m[r * cols + c];
            const unsigned char *sc = s + c * n, *e = (const unsigned char *)exp.buf + lg[coef];
            if (coef == 1)
                for (i = 0; i < n; i++) o[i] ^= sc[i];
            else if (coef)
                for (i = 0; i < n; i++)
                    if (sc[i]) o[i] ^= e[lg[sc[i]]];
        }
done:
    PyBuffer_Release(&mat); PyBuffer_Release(&src);
    PyBuffer_Release(&exp); PyBuffer_Release(&log);
    return out;
}

static PyMethodDef methods[] = {
    {"matmul", matmul, METH_VARARGS,
     "matmul(flat_mat, rows, cols, src, n, exp, log) -> bytes"},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_gfcore", NULL, -1, methods};

PyMODINIT_FUNC PyInit__gfcore(void) { return PyModule_Create(&module); }
