"""Tracing from outside the package: wrap public functions of each layer.

Every wrapped call pushes a frame, so a layer's self time is its calls'
duration minus the time of wrapped calls nested inside them.  Calls into
operation-level functions are also recorded as spans (name, start, end,
parent span, operation id); hot leaf calls (Q(v) arithmetic, DecoratedMatrix
construction, single generator steps) only feed count-plus-time accumulators,
so the trace stays bounded.
"""

import json
import time

MAX_SPANS = 200_000

# (layer, attribute path, record spans?)
FUNCTIONS = (
    ("schur_algebra", "mul_general", True),
    ("schur_algebra", "express_in_generators", True),
    ("schur_algebra", "evaluate_words", True),
    ("schur_algebra", "apply_letter", False),
    ("schur_algebra", "_cached", False),
    ("pbw", "normalize_word", True),
    ("pbw", "multiply", True),
    ("pbw", "project_to_schur", True),
    ("pbw", "left_mul_generator", False),
    ("reps", "build_module", True),
    ("reps", "action_matrix", True),
    ("reps", "decompose_weight_table", True),
    ("reps", "act", False),
    ("tensor_space", "check_left_module", True),
    ("tensor_space", "weight_multiplicities", True),
    ("tensor_space", "block_ell_rank", False),
    ("linalg", "rank_of_rows", False),
    ("linalg", "solve_unique", True),
    ("oracle", "structure_constants", True),
    ("oracle", "_conv_table", False),
    ("qv", "lagrange_interpolate", False),
)

RF_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "inverse")

# (layer, class, methods)
METHODS = (
    ("qv", "RationalFunction", RF_OPS + ("__init__",)),
    ("decorated", "DecoratedMatrix", ("__init__",)),
)


def subspace_count(d, k, p):
    """Number of k-dimensional subspaces of F_p^d (Gaussian binomial)."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


class Tracer:
    """Counters, self times and spans over any number of sessions."""

    def __init__(self):
        self.stack = [[0.0, None]]       # frames: [child time, span id]
        self.stats = {}                  # name -> [calls, total s, self s, raised]
        self.counts = {"tables_built": 0, "table_hits": 0, "points_counted": 0,
                       "words_expanded": 0, "combo_lookups": 0,
                       "combo_hits": 0}
        self.spans = []
        self.dropped_spans = 0
        self.next_id = 0
        self.op = None

    # -- installing -----------------------------------------------------------

    def install(self, s):
        """Wrap the layer functions of a fresh session in place."""
        modules = [getattr(s, layer) for layer in vars(s)]
        for layer, attr, span in FUNCTIONS:
            mod = getattr(s, layer)
            orig = getattr(mod, attr)
            wrapped = self._wrap(f"{layer}.{attr}", orig, span,
                                 self._probe(layer, attr, s))
            for m in modules:   # also rebind names imported elsewhere
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
        for layer, cls_name, methods in METHODS:
            cls = getattr(getattr(s, layer), cls_name)
            done = {}
            for meth in methods:
                orig = vars(cls)[meth]
                if orig not in done:
                    done[orig] = self._wrap(f"{layer}.{cls_name}.{orig.__name__}",
                                            orig, False, None)
                setattr(cls, meth, done[orig])

    def _probe(self, layer, attr, s):
        """Extra counting done before or after particular calls."""
        counts = self.counts
        if (layer, attr) == ("oracle", "_conv_table"):
            cache = s.oracle._CONV_CACHE

            def before(args, kwargs):
                d, out_label, mid_dim, p = args
                if (d, out_label, mid_dim, p) in cache:
                    counts["table_hits"] += 1
                else:
                    counts["tables_built"] += 1
                    counts["points_counted"] += (subspace_count(d, mid_dim, p)
                                                 * p ** d)
            return before, None
        if (layer, attr) == ("schur_algebra", "_cached"):
            # every sub-expansion of word expansion is looked up here
            cache = s.schur_algebra._COMBO_CACHE

            def before(args, kwargs):
                counts["combo_lookups"] += 1
                counts["combo_hits"] += args[0] in cache
            return before, None
        if (layer, attr) == ("schur_algebra", "express_in_generators"):
            def after(result):
                counts["words_expanded"] += len(result)
            return None, after
        return None

    def _wrap(self, name, fn, span, probe):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter
        before, after = probe if probe else (None, None)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1]
            if span:
                sid = self.next_id
                self.next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if span:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((sid, name, t0, t1, parent[1],
                                           self.op))
                    else:
                        self.dropped_spans += 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading --------------------------------------------------------------

    def snapshot(self):
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counts))

    def layer_metrics(self, before, after):
        """Per-layer metrics for the work done between two snapshots."""
        (s0, c0), (s1, c1) = before, after

        def diff(name, i):
            return s1.get(name, [0] * 4)[i] - s0.get(name, [0] * 4)[i]

        def layer_sum(layer, i):
            return sum(diff(n, i) for n in s1 if n.startswith(layer + "."))

        def count(key):
            return c1[key] - c0[key]

        def ratio(num, den):
            return num / den if den else 0.0

        rf_ops = sum(diff(f"qv.RationalFunction.{m}", 0) for m in RF_OPS)
        express = diff("schur_algebra.express_in_generators", 0)
        tables = count("tables_built")
        hits = count("table_hits")
        out = {
            "qv.rf_ops": rf_ops,
            "qv.self_s": layer_sum("qv", 2),
            "qv.interp_calls": diff("qv.lagrange_interpolate", 0),
            "qv.interp_s": diff("qv.lagrange_interpolate", 1),
            "oracle.interp_retries": diff("qv.lagrange_interpolate", 3),
            "decorated.matrices_built": diff("decorated.DecoratedMatrix.__init__", 0),
            "decorated.self_s": layer_sum("decorated", 2),
            "schur_algebra.express_calls": express,
            "schur_algebra.express_s": diff("schur_algebra.express_in_generators", 1),
            "schur_algebra.words_expanded": count("words_expanded"),
            "schur_algebra.express_repeat_ratio": ratio(count("combo_hits"),
                                                        count("combo_lookups")),
            "schur_algebra.apply_letter_calls": diff("schur_algebra.apply_letter", 0),
            "schur_algebra.apply_letter_s": diff("schur_algebra.apply_letter", 1),
            "schur_algebra.mul_calls": diff("schur_algebra.mul_general", 0),
            "schur_algebra.self_s": layer_sum("schur_algebra", 2),
            "schur_algebra.evaluate_words_s": diff("schur_algebra.evaluate_words", 1),
            "pbw.normalize_calls": diff("pbw.normalize_word", 0),
            "pbw.left_mul_calls": diff("pbw.left_mul_generator", 0),
            "pbw.self_s": layer_sum("pbw", 2),
            "reps.act_calls": diff("reps.act", 0),
            "reps.self_s": layer_sum("reps", 2),
            "tensor_space.calls": layer_sum("tensor_space", 0),
            "tensor_space.self_s": layer_sum("tensor_space", 2),
            "linalg.calls": layer_sum("linalg", 0),
            "linalg.self_s": layer_sum("linalg", 2),
            "oracle.calls": diff("oracle.structure_constants", 0),
            "oracle.self_s": layer_sum("oracle", 2),
            "oracle.tables_built": tables,
            "oracle.points_counted": count("points_counted"),
            "oracle.table_reuse_ratio": ratio(hits, tables + hits),
        }
        return out

    def write_spans(self, path, extra):
        """Write every recorded span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(extra, dropped_spans=self.dropped_spans,
                                     fields=["id", "name", "start", "end",
                                             "parent", "op"])) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def cache_entries(s):
    """Entries in the module-level memo caches of a session."""
    sa, pbw, oracle = s.schur_algebra, s.pbw, s.oracle
    return {
        "schur_algebra.cache_entries": len(sa._COMBO_CACHE) + len(sa._EVAL_CACHE),
        "pbw.cache_entries": (len(pbw._MUL_CACHE) + len(pbw._EF_CACHE)
                              + len(pbw._FE_CACHE)),
        "oracle.cache_entries": len(oracle._CONV_CACHE) + len(oracle._MIXED_CACHE),
    }
