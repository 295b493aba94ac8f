"""The instances each workload runs on, and its operations per pass.

Standard library only, so that run.py can read the operation counts
without importing the program.
"""

# (instance, p, n): random tables on F_{p^n}.
RANDOM_TABLES = (("f3_13", 3, 13), ("f7_7", 7, 7))

# (instance, p, n, variant, r, t): p copies of Tr(x^(p^r+1) -+ x^(p^t+1))
# glued on F_{p^n} x F_p. Every template is near-bent, so any scalar tuple
# glues into a bent function.
GLUED = (
    ("g3_10", 3, 10, "plus", 2, 1),
    ("g5_6", 5, 6, "minus", 3, 2),
    ("g7_5", 7, 5, "minus", 2, 1),
)

# The verify-paper criteria.
CRITERIA = tuple(range(1, 10))

# Fields the nine criteria build.
PAPER_FIELDS = tuple((3, n) for n in range(1, 9)) + tuple((5, n) for n in range(1, 6))

# Fields set up before a pass: make_field for each is part of setup_s.
FIELDS = {
    "paper": PAPER_FIELDS,
    "random_tables": tuple((p, n) for _, p, n in RANDOM_TABLES),
    "glued_bent": tuple((p, n) for _, p, n, *_ in GLUED),
}

# Operations per pass: one per criterion, table or glued instance.
OPERATIONS = {
    "paper": len(CRITERIA),
    "random_tables": len(RANDOM_TABLES),
    "glued_bent": len(GLUED),
}
