"""Layers, span buckets and the per-layer metrics of the traced run.

A *layer* is a module of `gauss_deficit`.  Each wrapped function belongs to
one *bucket* of its layer; a bucket's self time is a per-layer `_s` metric,
and a layer's self time is the sum of its buckets.  `PER_LAYER` lists every
metric the traced run emits, with the end-to-end metric it should move and
the workloads on which it should (mechanism) and should not (bypass) move.
"""
from __future__ import annotations

LAYERS = ("numerics", "families", "semigroups", "flows", "functionals",
          "inequalities", "transport", "hamilton_jacobi", "reports", "cli")

# reports is under 0.1 % of self time on every workload: it is traced, so the
# time sums close, but it gets no metric of its own
METRIC_LAYERS = tuple(layer for layer in LAYERS if layer != "reports")

# function name -> bucket, per layer; anything unlisted goes to DEFAULT_BUCKET
BUCKETS = {
    "numerics": {"gauss_hermite_rule": "gh_rule"},
    "semigroups": {"ou_apply": "ou", "_ou_closures_1d": "ou",
                   "_ou_values_2d": "ou", "check_commutation": "ou",
                   "dilation_apply": "ou"},
    "flows": {"certify": "certify", "certify_matrix": "certify_matrix",
              "fp_evolve": "fp", "fp_class_member": "fp",
              "preservation_trace": "fp", "_kernel_quadrature_field": "fp"},
    "functionals": {"entropy_fisher": "quad", "lp_norm_gaussian": "quad",
                    "q_functional": "quad"},
    "inequalities": {"brascamp_lieb_check": "bl", "make_fp_input": "inputs",
                     "make_logconcave_input": "inputs",
                     "make_talagrand_input": "inputs",
                     "sample_reverse_triple": "inputs"},
    "transport": {"w2_sq_coupling_2d": "coupling2d", "brenier_1d": "brenier",
                  "w2": "brenier"},
    "hamilton_jacobi": {"hopf_lax": "hopf_lax"},
    "cli": {"run": "overhead"},
}
DEFAULT_BUCKET = {"numerics": "field", "families": "eval", "semigroups": "other",
                  "flows": "other", "functionals": "other",
                  "inequalities": "check", "transport": "other",
                  "hamilton_jacobi": "other", "reports": "other",
                  "cli": "other"}
# private functions wrapped because a counter or a bucket needs them
PRIVATE = {"numerics": ("GridField.__post_init__", "GridField._check_agreement"),
           "families": ("Mixture._posterior",),
           "semigroups": ("_ou_closures_1d", "_ou_values_2d"),
           "flows": ("_kernel_quadrature_field",)}


def bucket_of(layer: str, name: str) -> str:
    short = name.rsplit(".", 1)[-1]
    return f"{layer}.{BUCKETS.get(layer, {}).get(short, DEFAULT_BUCKET[layer])}"


# end-to-end metrics (bench/run.py --trace 0) and their units
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB",
              "failed_frac": "ratio", "extremiser_err": "abs",
              "gauss_margin_err": "abs"}

W_ALL = ("matrix-2d", "grid-kernels", "gh-1d", "fp-flow")


def _m(name, unit, better, moves, mechanism, bypass=()):
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "mechanism": tuple(mechanism), "bypass": tuple(bypass)}


PER_LAYER = [
    _m("semigroups.ou_s", "s", "lower", "wall_s",
       ("matrix-2d", "gh-1d"), ("grid-kernels", "fp-flow")),
    _m("semigroups.ou_node_evals", "count", "lower", "wall_s",
       ("matrix-2d", "gh-1d"), ("grid-kernels", "fp-flow")),
    _m("semigroups.ou2d_read_ratio", "ratio", "higher", "wall_s",
       ("matrix-2d",)),
    _m("semigroups.ou_peak_mb", "MB", "lower", "peak_mem_mb", ("matrix-2d",)),
    _m("numerics.field_s", "s", "lower", "wall_s",
       ("gh-1d", "matrix-2d"), ("grid-kernels",)),
    _m("numerics.field_points", "count", "lower", "wall_s",
       ("gh-1d", "matrix-2d"), ("grid-kernels",)),
    _m("numerics.recheck_ratio", "ratio", "lower", "wall_s",
       ("gh-1d", "matrix-2d"), ("grid-kernels",)),
    _m("numerics.gh_rules", "count", "lower", "wall_s, setup_s",
       ("gh-1d",), ("fp-flow",)),
    _m("numerics.gh_rule_s", "s", "lower", "wall_s, setup_s",
       ("gh-1d",), ("fp-flow",)),
    _m("families.eval_s", "s", "lower", "wall_s",
       ("gh-1d", "matrix-2d"), ("grid-kernels",)),
    _m("families.mix_evals", "count", "lower", "wall_s",
       ("gh-1d", "matrix-2d"), ("grid-kernels",)),
    _m("flows.fp_s", "s", "lower", "wall_s",
       ("fp-flow",), ("grid-kernels", "matrix-2d")),
    _m("flows.fp_kernel_cells", "count", "lower", "wall_s",
       ("fp-flow",), ("grid-kernels", "matrix-2d")),
    _m("flows.fp_peak_mb", "MB", "lower", "peak_mem_mb", ("fp-flow",)),
    _m("flows.certify_s", "s", "lower", "wall_s, gauss_margin_err",
       ("fp-flow", "gh-1d", "matrix-2d"), ("grid-kernels",)),
    _m("flows.certify_matrix_s", "s", "lower", "wall_s, gauss_margin_err",
       ("matrix-2d",), ("grid-kernels",)),
    _m("functionals.quad_s", "s", "lower", "wall_s",
       ("gh-1d",), ("grid-kernels",)),
    _m("inequalities.bl_s", "s", "lower", "wall_s",
       ("grid-kernels",), ("matrix-2d", "gh-1d", "fp-flow")),
    _m("inequalities.bl_cells", "count", "lower", "wall_s",
       ("grid-kernels",), ("matrix-2d", "gh-1d", "fp-flow")),
    _m("inequalities.bl_peak_mb", "MB", "lower", "peak_mem_mb",
       ("grid-kernels",), ("matrix-2d", "gh-1d", "fp-flow")),
    _m("inequalities.check_s", "s", "lower", "wall_s", ("gh-1d",)),
    _m("hamilton_jacobi.hopf_lax_s", "s", "lower", "wall_s, extremiser_err",
       ("grid-kernels",), ("matrix-2d", "gh-1d", "fp-flow")),
    _m("hamilton_jacobi.hopf_lax_pairs", "count", "lower",
       "wall_s, extremiser_err",
       ("grid-kernels",), ("matrix-2d", "gh-1d", "fp-flow")),
    _m("transport.coupling2d_s", "s", "lower", "wall_s", ("matrix-2d",),
       ("gh-1d",)),
    _m("transport.coupling2d_peak_mb", "MB", "lower", "peak_mem_mb",
       ("matrix-2d",), ("gh-1d",)),
    _m("transport.brenier_s", "s", "lower", "wall_s",
       ("matrix-2d", "gh-1d"), ("grid-kernels", "fp-flow")),
    _m("transport.brenier_calls", "count", "lower", "wall_s",
       ("matrix-2d", "gh-1d"), ("grid-kernels", "fp-flow")),
    _m("cli.items", "count", "higher", "wall_s", ("gh-1d",), ("fp-flow",)),
    _m("cli.pool_wait_s", "s", "lower", "wall_s", ("gh-1d",), ("fp-flow",)),
    _m("cli.overhead_s", "s", "lower", "wall_s", ("gh-1d",), ("fp-flow",)),
]
PER_LAYER += [_m(f"{layer}.errors", "count", "lower", "failed_frac", W_ALL)
              for layer in METRIC_LAYERS]
PER_LAYER += [_m(f"{layer}.self_s", "s", "lower", "wall_s", W_ALL)
              for layer in METRIC_LAYERS]
PER_LAYER += [
    _m("trace.overhead_s", "s", "lower", "(none: traced minus untraced wall_s)",
       W_ALL),
    _m("trace.remainder_s", "s", "lower",
       "(none: traced wall time no library span covers)", W_ALL),
]
