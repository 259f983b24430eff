"""Test helper: polynomials in column form, as `poly.trop_eval_many` and the
key-lemma check read them: one column per variable, then the
coefficients, term by term."""


def as_columns(p):
    """The dict p in column form."""
    return (*map(list, zip(*p)), list(p.values()))


def as_dict(f):
    """The column form f as a dict."""
    *exponents, coeffs = f
    return dict(zip(zip(*exponents), coeffs))
