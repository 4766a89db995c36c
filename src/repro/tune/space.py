"""Design-space descriptions for the guided autotuner.

A :class:`SearchSpace` wraps a :class:`~repro.parallel.ParamGrid` with
the context the tuner needs beyond raw axis products: which application
surface the axes parameterise (``block_mm`` / ``lu`` / ``fw``), which
machine preset to evaluate on, which parameters are pinned, and which
grid points are *feasible* (simulator constraints plus synthesis fit).
It also answers the two structural questions the search driver asks:

* ``points()`` -- the feasible axis coordinates, in deterministic grid
  order (the rightmost axis varies fastest, duplicates dropped by the
  grid itself);
* ``neighbors(point, radius)`` -- the axis-adjacent feasible points
  around an incumbent, for the local-refinement pass.

Axis values can be given explicitly (``[0, 200, 400]``), as an
inclusive range string (``"0:3000:200"``), or as a range dict
(``{"start": 0, "stop": 3000, "step": 200}``) -- the latter two are the
"per-axis ranges" surface used by ``tune run --axis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..hw import FW_DESIGN_SPEC, MM_DESIGN_SPEC
from ..hw.synthesis import SynthesisError, SynthesisReport, synthesize
from ..machine import ALL_PRESETS
from ..parallel import ParamGrid
from ..parallel.grid import canonical_json

__all__ = ["SPACE_KINDS", "SearchSpace", "named_space", "NAMED_SPACES", "parse_axis"]

#: Application surfaces the tuner can search over.  ``block_mm`` is the
#: paper's Figure 5 building block (one cooperative b x b multiply);
#: ``lu`` and ``fw`` are the full pipelined iterations.
SPACE_KINDS = ("block_mm", "lu", "fw")

#: Axes each kind accepts (fixed parameters may use the same names).
_KIND_PARAMS = {
    "block_mm": ("b", "b_f", "k"),
    "lu": ("n", "b", "k", "b_f", "l"),
    "fw": ("n", "b", "k", "l1", "l2"),
}

#: The FPGA kernel each kind synthesises (LU's opMM is the block multiply).
_KIND_KERNEL = {"block_mm": MM_DESIGN_SPEC, "lu": MM_DESIGN_SPEC, "fw": FW_DESIGN_SPEC}


def parse_axis(text: str) -> tuple[str, tuple[Any, ...]]:
    """Parse one ``--axis`` argument: ``name=lo:hi:step`` or ``name=a,b,c``.

    Range bounds are inclusive (``b_f=0:3000:200`` yields 16 values),
    matching how the paper states its sweep grids.
    """
    name, _, spec = text.partition("=")
    name = name.strip()
    spec = spec.strip()
    if not name or not spec:
        raise ValueError(f"bad axis {text!r}: expected name=lo:hi:step or name=v1,v2,...")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad axis range {spec!r}: expected lo:hi[:step]")
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or hi < lo:
            raise ValueError(f"bad axis range {spec!r}: need hi >= lo and step > 0")
        return name, tuple(range(lo, hi + 1, step))
    return name, tuple(int(v) if "." not in v else float(v) for v in spec.split(","))


def _expand_axis(values: Any) -> tuple[Any, ...]:
    """Explicit values for one axis (list, range string, or range dict)."""
    if isinstance(values, str):
        return parse_axis(f"axis={values}")[1]
    if isinstance(values, dict):
        lo, hi = int(values["start"]), int(values["stop"])
        step = int(values.get("step", 1))
        if step <= 0 or hi < lo:
            raise ValueError(f"bad axis range {values!r}: need stop >= start and step > 0")
        return tuple(range(lo, hi + 1, step))
    return tuple(values)


@dataclass(frozen=True)
class SearchSpace:
    """One tunable design space: kind + machine + pinned params + axes."""

    kind: str = "block_mm"
    machine: str = "xd1"
    fixed: dict[str, Any] = field(default_factory=dict)
    axes: dict[str, tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SPACE_KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}; expected one of {SPACE_KINDS}")
        if self.machine not in ALL_PRESETS:
            raise ValueError(
                f"unknown machine {self.machine!r}; available: {sorted(ALL_PRESETS)}"
            )
        if not self.axes:
            raise ValueError("search space needs at least one axis")
        allowed = _KIND_PARAMS[self.kind]
        for name in list(self.fixed) + list(self.axes):
            if name not in allowed:
                raise ValueError(
                    f"unknown parameter {name!r} for kind {self.kind!r}; "
                    f"expected one of {allowed}"
                )
        overlap = set(self.fixed) & set(self.axes)
        if overlap:
            raise ValueError(f"parameters both fixed and swept: {sorted(overlap)}")
        missing = [p for p in allowed if p not in self.fixed and p not in self.axes]
        if missing:
            raise ValueError(f"kind {self.kind!r} is missing parameters {missing}")
        # Normalise through ParamGrid: tuples everywhere, duplicates
        # dropped, empty axes rejected.
        grid = ParamGrid(**{k: _expand_axis(v) for k, v in self.axes.items()})
        object.__setattr__(self, "axes", dict(grid.axes))
        object.__setattr__(self, "fixed", dict(self.fixed))

    # -- enumeration ----------------------------------------------------

    def grid(self) -> ParamGrid:
        """The underlying axis product (feasibility not yet applied)."""
        return ParamGrid(**self.axes)

    def params(self, point: dict[str, Any]) -> dict[str, Any]:
        """Full parameter dict for one axis point (fixed merged in)."""
        return {**self.fixed, **point}

    def feasible(self, point: dict[str, Any]) -> bool:
        """Whether the point satisfies simulator and synthesis constraints."""
        p = self.params(point)
        try:
            self.synthesis(int(p["k"]))
        except (SynthesisError, ValueError):
            return False
        try:
            if self.kind == "block_mm":
                b, b_f, k = int(p["b"]), int(p["b_f"]), int(p["k"])
                return 0 <= b_f <= b and b % k == 0 and b > 0
            if self.kind == "lu":
                from ..apps.lu import LuSimConfig

                LuSimConfig(
                    n=int(p["n"]), b=int(p["b"]), k=int(p["k"]),
                    b_f=int(p["b_f"]), l=int(p["l"]), iterations=1,
                )
                return True
            from ..apps.fw import FwSimConfig

            cfg = FwSimConfig(
                n=int(p["n"]), b=int(p["b"]), k=int(p["k"]),
                l1=int(p["l1"]), l2=int(p["l2"]), iterations=1,
            )
            # The split must cover exactly the per-node phase workload
            # (l1 + l2 = n / (b p), Section 5.2): otherwise two points
            # would simulate different problems and be incomparable.
            return (cfg.l1 + cfg.l2) * self.spec().p * cfg.b == cfg.n
        except (ValueError, ZeroDivisionError):
            return False

    def points(self) -> list[dict[str, Any]]:
        """Feasible axis points in deterministic grid order."""
        return [pt for pt in self.grid() if self.feasible(pt)]

    def neighbors(self, point: dict[str, Any], radius: int = 1) -> list[dict[str, Any]]:
        """Feasible axis-adjacent points around ``point``.

        For each axis in declaration order, steps of 1..radius index
        positions in each direction (minus first), skipping infeasible
        coordinates and ``point`` itself.  Deterministic order is what
        makes the refinement pass bitwise-reproducible.
        """
        out: list[dict[str, Any]] = []
        seen = {canonical_json(point)}
        for name, values in self.axes.items():
            try:
                idx = values.index(point[name])
            except (KeyError, ValueError):
                continue
            for step in range(1, radius + 1):
                for j in (idx - step, idx + step):
                    if not 0 <= j < len(values):
                        continue
                    cand = {**point, name: values[j]}
                    marker = canonical_json(cand)
                    if marker in seen:
                        continue
                    seen.add(marker)
                    if self.feasible(cand):
                        out.append(cand)
        return out

    # -- hardware context ----------------------------------------------

    def spec(self):
        """The :class:`~repro.machine.MachineSpec` this space evaluates on."""
        return ALL_PRESETS[self.machine]()

    def synthesis(self, k: int) -> SynthesisReport:
        """Synthesis estimate for the space's FPGA design at ``k`` PEs.

        The FPGA-resource objective of the Pareto front; raises
        :class:`~repro.hw.synthesis.SynthesisError` when k does not fit.
        """
        return synthesize(_KIND_KERNEL[self.kind], self.spec().node.fpga.device, k)

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "machine": self.machine,
            "fixed": dict(self.fixed),
            "axes": {name: list(values) for name, values in self.axes.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SearchSpace":
        return cls(
            kind=data.get("kind", "block_mm"),
            machine=data.get("machine", "xd1"),
            fixed=dict(data.get("fixed", {})),
            axes={name: _expand_axis(v) for name, v in data.get("axes", {}).items()},
        )


def _fig5_bf_values(step: int = 200) -> tuple[int, ...]:
    """The Figure 5 sweep grid: b_f multiples of ``step`` that align to k=8."""
    return tuple(bf for bf in range(0, 3001, step) if bf % 8 == 0)


def named_space(name: str) -> SearchSpace:
    """A library space by name (the ``tune run --space`` surface)."""
    try:
        return NAMED_SPACES[name]()
    except KeyError:
        raise ValueError(
            f"unknown space {name!r}; available: {sorted(NAMED_SPACES)}"
        ) from None


#: Library spaces.  ``fig5-bf`` is the paper's Figure 5 grid (the
#: acceptance benchmark for search efficiency); ``mm-codesign`` adds the
#: PE count as a second axis, trading slices against throughput (a real
#: two-objective front); ``fw-split`` searches the Figure 7 l1:l2 task
#: split; ``lu-bf-l`` searches the LU iteration over (b_f, l).
NAMED_SPACES = {
    "fig5-bf": lambda: SearchSpace(
        kind="block_mm",
        machine="xd1",
        fixed={"b": 3000, "k": 8},
        axes={"b_f": _fig5_bf_values()},
    ),
    "mm-codesign": lambda: SearchSpace(
        kind="block_mm",
        machine="xd1",
        fixed={"b": 3000},
        axes={"b_f": _fig5_bf_values(400), "k": (2, 4, 6, 8)},
    ),
    "fw-split": lambda: SearchSpace(
        kind="fw",
        machine="xd1",
        fixed={"n": 18432, "b": 256, "k": 8},
        axes={"l1": tuple(range(0, 13)), "l2": tuple(range(0, 13))},
    ),
    "lu-bf-l": lambda: SearchSpace(
        kind="lu",
        machine="xd1",
        fixed={"n": 12000, "b": 3000, "k": 8},
        axes={"b_f": _fig5_bf_values(400), "l": (1, 2, 3, 4)},
    ),
}
