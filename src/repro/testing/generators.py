"""Seedable random generation of SPNs, queries and input batches.

This is *library* code, not test scaffolding: the differential oracle
(:mod:`repro.testing.oracle`), the ``python -m repro fuzz`` CLI command
and the property-based tests all draw from the same generators, so a
failing fuzz case is always reproducible from ``(seed, index)`` alone.

Three layers:

- :class:`SPNGenerator` — random valid (complete & decomposable) SPN
  graphs over Gaussian/categorical/histogram leaves, in *balanced*,
  *deep* (long alternating sum/product chains) and *wide* (high-arity
  mixtures) shapes, plus multi-head lists for classifier kernels and
  *sum layers* (several sums over one shared child list, the RAT-SPN
  region shape);
- :class:`CaseGenerator` — full differential-test cases: an SPN, a
  query (batch size, input dtype, marginal support, accuracy bound) and
  an input batch seeded with adversarial structure: NaN (marginalized)
  evidence, out-of-domain category values, extreme magnitudes, zero
  probability buckets and tail batch sizes W-1/W/W+1 around the
  compiled chunk width;
- thin `hypothesis <https://hypothesis.readthedocs.io>`_ strategy
  wrappers (:func:`leaf_nodes`, :func:`random_spns`) so property-based
  tests reuse the exact same generator instead of maintaining a
  duplicate strategy definition. Hypothesis is imported lazily — the
  library core has no test-framework dependency.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..spn.nodes import Categorical, Gaussian, Histogram, Leaf, Node, Product, Sum, leaves
from ..spn.query import (
    ConditionalProbability,
    Expectation,
    JointProbability,
    MPEQuery,
    Query,
    SampleQuery,
)

#: Probability that a generated input batch carries each adversarial
#: feature. Tuned so a ~200-case fuzz run exercises every combination.
NAN_ROW_SHARE = 0.25
OUT_OF_DOMAIN_SHARE = 0.15
EXTREME_SHARE = 0.1

#: Magnitude used for "extreme value" injections. Large enough to push
#: Gaussian log densities far out (~-1e7) yet representable in f32 log
#: space on every backend.
EXTREME_MAGNITUDE = 1.0e4

LEAF_KINDS = ("gaussian", "categorical", "histogram")
SHAPES = ("balanced", "deep", "wide")

#: (fan-in k, group size s) of the sum-layer cases: both sides of the
#: stacked-lowering threshold (``s * (k - 1)`` log-adds), a RAT-SPN
#: region (36 x 6), a class root (144 x 1) and a wide multi-sum group.
LAYER_SHAPES = ((1, 1), (2, 6), (9, 10), (36, 6), (144, 1), (9, 1), (2, 1), (36, 10))

#: All query modalities the case generator can produce. Every kind is a
#: pure function of ``(seed, index)`` — the fuzz CLI and the nightly CI
#: matrix iterate this tuple.
QUERY_CASE_KINDS = ("joint", "mpe", "sample", "conditional", "expectation")


def _rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


class SPNGenerator:
    """Random valid SPN structures from a seeded RNG."""

    def __init__(
        self,
        seed: Union[int, Sequence[int], np.random.Generator] = 0,
        max_features: int = 5,
        max_depth: int = 3,
        allow_zero_probabilities: bool = True,
    ):
        self.rng = _rng_from(seed)
        self.max_features = max_features
        self.max_depth = max_depth
        self.allow_zero_probabilities = allow_zero_probabilities

    # -- leaves ------------------------------------------------------------------

    def leaf(self, variable: int, kind: Optional[str] = None) -> Leaf:
        kind = kind or self.rng.choice(LEAF_KINDS)
        if kind == "gaussian":
            return self.gaussian(variable)
        if kind == "categorical":
            return self.categorical(variable)
        return self.histogram(variable)

    def gaussian(self, variable: int) -> Gaussian:
        mean = float(self.rng.uniform(-5.0, 5.0))
        stdev = float(self.rng.uniform(0.1, 3.0))
        return Gaussian(variable, mean, stdev)

    def _bucket_masses(self, count: int) -> np.ndarray:
        masses = self.rng.uniform(0.05, 1.0, size=count)
        if self.allow_zero_probabilities and self.rng.random() < 0.2:
            # A zero-probability bucket: exercises exact -inf (categorical)
            # and the epsilon floor (histogram) on every backend.
            masses[self.rng.integers(0, count)] = 0.0
        total = masses.sum()
        return masses / (total if total > 0 else 1.0)

    def categorical(self, variable: int) -> Categorical:
        count = int(self.rng.integers(2, 6))
        return Categorical(variable, self._bucket_masses(count))

    def histogram(self, variable: int) -> Histogram:
        buckets = int(self.rng.integers(2, 6))
        # Compiled lowering requires uniform bucket widths.
        lo = float(self.rng.uniform(-2.0, 1.0))
        width = float(self.rng.uniform(0.5, 2.0))
        bounds = [lo + width * i for i in range(buckets + 1)]
        return Histogram(variable, bounds, self._bucket_masses(buckets))

    # -- structures --------------------------------------------------------------

    def spn(
        self,
        max_features: Optional[int] = None,
        max_depth: Optional[int] = None,
        shape: Optional[str] = None,
    ) -> Tuple[Node, int]:
        """A random valid SPN; returns ``(root, num_features)``."""
        max_features = max_features or self.max_features
        max_depth = max_depth or self.max_depth
        shape = shape or self.rng.choice(SHAPES)
        if shape == "deep":
            return self._deep_spn(max_depth)
        if shape == "wide":
            return self._wide_spn(max_features)
        return self._balanced_spn(max_features, max_depth)

    def multi_head(self, heads: int = 2, **kwargs) -> Tuple[List[Node], int]:
        """Per-class SPNs over one shared feature set (classifier heads)."""
        first, num_features = self.spn(**kwargs)
        roots = [first]
        for _ in range(heads - 1):
            root = self._over_scope(tuple(range(num_features)), depth=0,
                                    max_depth=self.max_depth)
            roots.append(root)
        return roots, num_features

    def _balanced_spn(self, max_features: int, max_depth: int) -> Tuple[Node, int]:
        num_features = int(self.rng.integers(2, max_features + 1))
        scope = tuple(range(num_features))
        return self._over_scope(scope, 0, max_depth), num_features

    def _over_scope(self, scope: Tuple[int, ...], depth: int, max_depth: int) -> Node:
        if len(scope) == 1:
            return self.leaf(scope[0])
        if depth >= max_depth:
            return Product([self.leaf(v) for v in scope])
        if self.rng.random() < 0.5:
            arity = int(self.rng.integers(2, 4))
            children = [
                self._over_scope(scope, depth + 1, max_depth) for _ in range(arity)
            ]
            weights = self.rng.uniform(0.1, 1.0, size=arity)
            return Sum(children, weights)
        split = int(self.rng.integers(1, len(scope)))
        left, right = scope[:split], scope[split:]
        return Product(
            [
                self._over_scope(left, depth + 1, max_depth),
                self._over_scope(right, depth + 1, max_depth),
            ]
        )

    def _deep_spn(self, max_depth: int) -> Tuple[Node, int]:
        """An alternating sum/product chain (stresses value-range decay)."""
        levels = int(self.rng.integers(max(3, max_depth), max_depth + 5))
        node: Node = Product([self.leaf(0), self.leaf(1)])
        for _ in range(levels):
            alt = Product([self.leaf(0), self.leaf(1)])
            weights = self.rng.uniform(0.1, 1.0, size=2)
            node = Sum([node, alt], weights)
        return node, 2

    def _wide_spn(self, max_features: int) -> Tuple[Node, int]:
        """A high-arity mixture of full factorizations."""
        num_features = int(self.rng.integers(2, max_features + 1))
        arity = int(self.rng.integers(4, 9))
        children = [
            Product([self.leaf(v) for v in range(num_features)])
            for _ in range(arity)
        ]
        weights = self.rng.uniform(0.05, 1.0, size=arity)
        return Sum(children, weights), num_features


    def sum_layer(
        self,
        fan_in: int,
        group: int,
        num_features: int = 2,
        zero_weights: bool = True,
    ) -> Tuple[Node, int]:
        """A sum layer: ``group`` sums over one shared list of ``fan_in``
        factorized children (the shape of a RAT-SPN region), joined by a
        root sum when there is more than one. With ``zero_weights``
        about half of the sums carry one weight that is exactly zero
        (batch kernels lower those as binary log-adds, the dense ones
        stacked)."""
        children: List[Node] = []
        for _ in range(fan_in):
            factors = [self.leaf(v) for v in range(num_features)]
            children.append(Product(factors) if num_features > 1 else factors[0])
        sums: List[Node] = []
        for _ in range(group):
            weights = self.rng.uniform(0.05, 1.0, size=fan_in)
            if zero_weights and fan_in > 1 and self.rng.random() < 0.5:
                weights[self.rng.integers(0, fan_in)] = 0.0
            sums.append(Sum(children, weights))
        if group == 1:
            return sums[0], num_features
        return Sum(sums, self.rng.uniform(0.1, 1.0, size=group)), num_features


# --- differential-test cases ---------------------------------------------------


@dataclasses.dataclass
class Case:
    """One differential-test case: model + query + concrete input batch."""

    seed: int
    index: int
    spn: Node
    num_features: int
    query: Query
    inputs: np.ndarray
    label: str = ""
    #: Execute-time RNG seed for sample-query cases (pure function of
    #: the case identity, so replays are bit-reproducible).
    sample_seed: int = 0

    @property
    def name(self) -> str:
        return f"case(seed={self.seed}, index={self.index})"

    def replace(self, **changes) -> "Case":
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        from ..spn.nodes import num_nodes

        marks = []
        if self.query.kind != "joint":
            marks.append(f"query={self.query.kind}")
        if np.isnan(self.inputs).any():
            marks.append("nan-evidence")
        if self.label:
            marks.append(self.label)
        flags = f" [{', '.join(marks)}]" if marks else ""
        return (
            f"{self.name}: {num_nodes(self.spn)} nodes, "
            f"{self.num_features} features, batch {self.inputs.shape[0]} "
            f"(W={self.query.batch_size}, {self.query.input_dtype}"
            f"{', marginal' if self.query.support_marginal else ''})"
            f"{flags}"
        )


class CaseGenerator:
    """Derives independent, reproducible cases from ``(seed, index)``."""

    def __init__(
        self,
        seed: int = 0,
        max_features: int = 5,
        max_depth: int = 3,
        query_kinds: Sequence[str] = ("joint",),
    ):
        self.seed = int(seed)
        self.max_features = max_features
        self.max_depth = max_depth
        unknown = sorted(set(query_kinds) - set(QUERY_CASE_KINDS))
        if unknown:
            raise ValueError(
                f"unknown query kind(s) {', '.join(unknown)}; "
                f"available: {', '.join(QUERY_CASE_KINDS)}"
            )
        self.query_kinds = tuple(query_kinds)

    def case(self, index: int) -> Case:
        # Round-robin over the requested modalities so even a short fuzz
        # run covers each one; the case stays a pure (seed, index)
        # function because the kind depends on the index alone.
        kind = self.query_kinds[index % len(self.query_kinds)]
        return self.query_case(index, kind)

    def query_case(self, index: int, kind: str) -> Case:
        """A differential case for one query modality at ``(seed, index)``."""
        rng = np.random.default_rng([self.seed, index])
        structure = SPNGenerator(
            rng, max_features=self.max_features, max_depth=self.max_depth
        )
        shape = str(rng.choice(SHAPES))
        spn, num_features = structure.spn(shape=shape)
        batch_width = int(rng.choice([1, 2, 4, 8, 16, 32]))
        input_dtype = str(rng.choice(["f32", "f32", "f64"]))
        # Sometimes request an accuracy bound: routes format selection
        # through the full error analysis instead of the depth heuristic.
        relative_error = float(rng.choice([0.0, 0.0, 0.0, 1e-6, 1e-9]))
        inputs, used_nan = self._inputs(rng, spn, num_features, batch_width)
        inputs, query, used_nan = self._shape_for_kind(
            rng, kind, index, inputs, num_features, used_nan,
            batch_size=batch_width,
            input_dtype=input_dtype,
            relative_error=relative_error,
        )
        inputs = inputs.astype(np.float32 if input_dtype == "f32" else np.float64)
        return Case(
            seed=self.seed,
            index=index,
            spn=spn,
            num_features=num_features,
            query=query,
            inputs=inputs,
            label=shape,
            sample_seed=index,
        )

    def layer_case(self, index: int) -> Case:
        """A joint case over a sum layer (:data:`LAYER_SHAPES`, cycled by
        ``index``) — a stream of its own, so the ``query_case`` streams
        stay what they were."""
        rng = np.random.default_rng([self.seed, index, 0x1A7E])
        fan_in, group = LAYER_SHAPES[index % len(LAYER_SHAPES)]
        spn, num_features = SPNGenerator(rng).sum_layer(fan_in, group)
        batch_width = int(rng.choice([1, 2, 4, 8, 16, 32]))
        input_dtype = str(rng.choice(["f32", "f64"]))
        relative_error = float(rng.choice([0.0, 0.0, 1e-9]))
        inputs, used_nan = self._inputs(rng, spn, num_features, batch_width)
        query = JointProbability(
            support_marginal=used_nan,
            batch_size=batch_width,
            input_dtype=input_dtype,
            relative_error=relative_error,
        )
        return Case(
            seed=self.seed,
            index=index,
            spn=spn,
            num_features=num_features,
            query=query,
            inputs=inputs.astype(np.float32 if input_dtype == "f32" else np.float64),
            label=f"layer {fan_in}x{group}",
        )

    def _shape_for_kind(
        self,
        rng: np.random.Generator,
        kind: str,
        index: int,
        inputs: np.ndarray,
        num_features: int,
        used_nan: bool,
        **query_kwargs,
    ) -> Tuple[np.ndarray, Query, bool]:
        """Adjust the evidence pattern and build the query descriptor.

        Per-modality structure: MPE/sample/expectation cases lean on NaN
        (missing) evidence — including fully-observed and all-NaN-row
        extremes at fixed index strides — while conditional cases split
        the features into an observed query set and a (possibly NaN)
        evidence remainder.
        """
        if kind == "joint":
            return inputs, JointProbability(
                # NaN evidence means "marginalize": cases carrying NaN
                # compile with marginal support, matching the API-level
                # auto-routing.
                support_marginal=used_nan, **query_kwargs
            ), used_nan
        if kind == "conditional":
            count = int(rng.integers(1, num_features + 1))
            variables = tuple(
                sorted(rng.choice(num_features, size=count, replace=False))
            )
            # NaN is legal on evidence features only; scrub the query set.
            query_columns = np.asarray(variables, dtype=int)
            column = inputs[:, query_columns]
            inputs[:, query_columns] = np.where(np.isnan(column), 0.0, column)
            query = ConditionalProbability(
                query_variables=variables, **query_kwargs
            )
            return inputs, query, bool(np.isnan(inputs).any())
        # The completion/sampling/moment modalities: richer missingness.
        if index % 5 == 0:
            inputs = np.where(np.isnan(inputs), 0.0, inputs)  # fully observed
        else:
            extra = rng.random(inputs.shape) < 0.4
            inputs[extra] = np.nan
            if index % 7 == 0 and inputs.shape[0] > 0:
                inputs[rng.integers(0, inputs.shape[0])] = np.nan  # all-NaN row
        if kind == "mpe":
            return inputs, MPEQuery(**query_kwargs), True
        if kind == "sample":
            return inputs, SampleQuery(**query_kwargs), True
        query = Expectation(moment=int(rng.choice([1, 2])), **query_kwargs)
        return inputs, query, True

    def cases(self, count: int, start: int = 0) -> Iterator[Case]:
        for index in range(start, start + count):
            yield self.case(index)

    # -- inputs ------------------------------------------------------------------

    def _inputs(
        self,
        rng: np.random.Generator,
        spn: Node,
        num_features: int,
        batch_width: int,
    ) -> Tuple[np.ndarray, bool]:
        # Tail sizes 1 / W-1 / W / W+1 around the compiled chunk width,
        # plus a multi-chunk batch.
        candidates = [1, max(1, batch_width - 1), batch_width, batch_width + 1,
                      3 * batch_width + 5]
        batch = int(rng.choice(candidates))
        data = np.empty((batch, num_features), dtype=np.float64)
        by_variable: dict = {}
        for leaf in leaves(spn):
            by_variable.setdefault(leaf.variable, []).append(leaf)
        for variable in range(num_features):
            choices = by_variable.get(variable)
            leaf = choices[rng.integers(0, len(choices))] if choices else None
            data[:, variable] = self._column(rng, leaf, batch)
        used_nan = False
        if rng.random() < NAN_ROW_SHARE:
            # Marginalize random entries; occasionally a fully-NaN row
            # (probability one everywhere — log-likelihood exactly 0).
            mask = rng.random(data.shape) < 0.3
            if rng.random() < 0.25:
                mask[rng.integers(0, batch)] = True
            if mask.any():
                data[mask] = np.nan
                used_nan = True
        return data, used_nan

    def _column(self, rng, leaf, batch: int) -> np.ndarray:
        if isinstance(leaf, Categorical):
            count = len(leaf.probabilities)
            column = rng.integers(0, count, size=batch).astype(np.float64)
            out = rng.random(batch) < OUT_OF_DOMAIN_SHARE
            # Out-of-domain discrete evidence: above the bucket count,
            # negative, and fractional spillover — all probability zero.
            column[out] = rng.choice(
                [float(count), count + 3.0, -1.0, -0.4, count + 0.5], size=out.sum()
            )
            return column
        if isinstance(leaf, Histogram):
            lo, hi = leaf.bounds[0], leaf.bounds[-1]
            column = rng.uniform(lo - 0.5, hi + 0.5, size=batch)
            return column
        mean = leaf.mean if isinstance(leaf, Gaussian) else 0.0
        stdev = leaf.stdev if isinstance(leaf, Gaussian) else 1.0
        column = rng.normal(mean, stdev * 1.5, size=batch)
        extreme = rng.random(batch) < EXTREME_SHARE
        column[extreme] = rng.choice(
            [EXTREME_MAGNITUDE, -EXTREME_MAGNITUDE], size=extreme.sum()
        )
        return column


# --- hypothesis strategy wrappers ----------------------------------------------


def leaf_nodes(variable: int):
    """Hypothesis strategy: a random leaf over ``variable``."""
    from hypothesis import strategies as st

    return st.integers(0, 2**32 - 1).map(
        lambda seed: SPNGenerator(seed).leaf(variable)
    )


def random_spns(
    max_features: int = 4,
    max_depth: int = 3,
    allow_zero_probabilities: bool = False,
):
    """Hypothesis strategy: ``(root, num_features)`` of a random valid SPN.

    Drop-in replacement for the old test-local strategy module; the
    heavy lifting is delegated to :class:`SPNGenerator`, so hypothesis
    shrinks over the seed and every draw stays reproducible. Zero
    probability buckets (exact ``-inf`` log densities) are off by
    default — properties like "finite in support" rely on that.
    """
    from hypothesis import strategies as st

    return st.integers(0, 2**32 - 1).map(
        lambda seed: SPNGenerator(
            seed,
            max_features=max_features,
            max_depth=max_depth,
            allow_zero_probabilities=allow_zero_probabilities,
        ).spn()
    )
