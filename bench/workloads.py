"""Seeded inputs and request bodies of the four benchmark workloads.

Every workload is a closed loop with one client: the next request starts
only after the previous one has returned.

  mim_scan       `tmmcavity scan` through `cli.run`, default MIM config,
                 41x41 grid over x, dLc in [-lambda/2, lambda/2] shifted by
                 a seed-derived fraction of one grid step; one request is
                 one command.
  mim_compare    `tmmcavity compare` through `cli.run`, same config and
                 offset, 101x101 grid; one request is one command.
  chain_dynamic  200 random passive chains of 5, 9 or 13 elements; one
                 request is one `mim.evaluate_chain`.
  chain_noise    400 random passive chains of 33, 49, 65 or 81 elements;
                 one request is attach_loss_modes, solve_static,
                 static_force, operator_fields and diffusion.

The module imports nothing from `tmmcavity` at import time, so the
benchmark can time the package import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, replace

WAVELENGTH = 1.064e-6
POWER_W = 1.0
DEFAULT_SEED = 0
NAMES = ("mim_scan", "mim_compare", "chain_dynamic", "chain_noise")


@dataclass(frozen=True)
class Spec:
    """Size of one pass of a workload.

    `grid` is the number of samples per axis of a MIM command; `chains` and
    `sizes` give the chains per pass and their element counts.
    """

    name: str
    grid: int = 0
    chains: int = 0
    sizes: tuple = ()

    @property
    def is_mim(self) -> bool:
        return self.name.startswith("mim_")

    @property
    def command(self) -> str:
        return {"mim_scan": "scan", "mim_compare": "compare"}[self.name]

    @property
    def points_per_request(self) -> int:
        return self.grid * self.grid if self.is_mim else 1

    @property
    def requests_per_pass(self) -> int:
        return 1 if self.is_mim else self.chains


SPECS = {
    "mim_scan": Spec("mim_scan", grid=41),
    "mim_compare": Spec("mim_compare", grid=101),
    "chain_dynamic": Spec("chain_dynamic", chains=200, sizes=(5, 9, 13)),
    "chain_noise": Spec("chain_noise", chains=400, sizes=(33, 49, 65, 81)),
}


def tiny(spec: Spec) -> Spec:
    """A pass of the same workload small enough for a smoke test."""
    if spec.is_mim:
        return replace(spec, grid=5)
    return replace(spec, chains=len(spec.sizes))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def grid_fraction(seed: int) -> float:
    """Seed-derived shift of both grid axes, as a fraction of one step."""
    return random.Random(f"grid-{seed}").random()


def grid_bounds(spec: Spec, seed: int) -> tuple[float, float]:
    """(start, stop) in metres, shared by the x and dLc axes."""
    step = WAVELENGTH / (spec.grid - 1)
    shift = grid_fraction(seed) * step
    return -WAVELENGTH / 2 + shift, WAVELENGTH / 2 + shift


def chain_descriptions(spec: Spec, seed: int) -> list[list[tuple]]:
    """Random passive chains as plain tuples, independent of the package.

    A chain alternates scatterers ("s", Re zeta, Im zeta) and segments
    ("d", length in m), starting and ending with a scatterer; the mobile
    scatterer is the middle element.  Element counts go round-robin over
    `spec.sizes` in a freshly shuffled order for every round, so any run
    of consecutive requests sees an even mix of sizes.  Re zeta is uniform
    in [-3, -0.3]; 30% of scatterers absorb, with Im zeta uniform in
    [0.005, 0.05]; segments are uniform in [0.5, 5] mm.
    """
    rng = random.Random(f"{spec.name}-{seed}")
    counts = []
    while len(counts) < spec.chains:
        round_sizes = list(spec.sizes)
        rng.shuffle(round_sizes)
        counts.extend(round_sizes)
    chains = []
    for n in counts[: spec.chains]:
        els = []
        for i in range(n):
            if i % 2 == 0:
                zr = rng.uniform(-3.0, -0.3)
                zi = rng.uniform(0.005, 0.05) if rng.random() < 0.3 else 0.0
                els.append(("s", zr, zi))
            else:
                els.append(("d", rng.uniform(0.5e-3, 5e-3)))
        chains.append(els)
    return chains


def mobile_index(desc) -> int:
    return len(desc) // 2


def run_ini(spec: Spec, seed: int, out_path: str) -> str:
    """Run configuration for a MIM command; the grid goes in [grid].

    The grid is passed through the file, not `--grid`, because argparse
    reads a value starting with '-' as an option (see NOTES.md).
    """
    start, stop = grid_bounds(spec, seed)
    return (
        "[run]\nschema_version = 1\n\n"
        f"[pump]\nwavelength = {WAVELENGTH!r}\npower = {POWER_W!r}\nside = left\n\n"
        "[mim]\ncavity_length = 6.7cm\nmembrane_zeta = -1\nmirror_zeta = -30\n\n"
        f"[grid]\nx_start = {start!r}\nx_stop = {stop!r}\nx_count = {spec.grid}\n"
        f"dlc_start = {start!r}\ndlc_stop = {stop!r}\ndlc_count = {spec.grid}\n\n"
        f"[output]\npath = {out_path}\nformat = csv\nworkers = 1\n"
    )


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


class RequestFailed(Exception):
    """A request returned without raising but did not do its job."""


class MimCommand:
    """One `tmmcavity scan|compare` command per request, in-process."""

    def __init__(self, spec: Spec, seed: int, workdir: str):
        from tmmcavity import cli, config

        self.spec = spec
        self.cli = cli
        self.out = os.path.join(workdir, f"{spec.command}.csv")
        self.ini = os.path.join(workdir, "run.ini")
        with open(self.ini, "w", encoding="utf-8") as fh:
            fh.write(run_ini(spec, seed, self.out))
        config.load_run_config(self.ini)  # part of set-up; each command loads it again
        self.argv = [spec.command, "--config", self.ini]
        self.first_files = None
        self.bytes_written = 0

    def request(self, i: int):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.run(self.argv)
        if code != 0:
            raise RequestFailed(f"exit code {code}: {sink.getvalue().strip()}")

    def collect(self, _result) -> str:
        """Digest of the files the last command wrote; they are removed.

        The first command's files are kept whole in `first_files` for the
        checks; `bytes_written` counts every file of every command.
        """
        files = {}
        for suffix in ("", ".meta.json", ".overlay.csv"):
            path = self.out + suffix
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[suffix or ".csv"] = fh.read()
                os.unlink(path)
        self.bytes_written += sum(len(b) for b in files.values())
        if self.first_files is None:
            self.first_files = files
        digest = hashlib.sha256()
        for suffix in sorted(files):
            digest.update(suffix.encode() + b"\0" + files[suffix])
        return digest.hexdigest()


def build_chain(desc):
    from tmmcavity import Chain, Scatterer, Segment

    els = [
        Scatterer.of(complex(e[1], e[2])) if e[0] == "s" else Segment(e[1])
        for e in desc
    ]
    return Chain(tuple(els), mobile_index(desc), 2 * math.pi / WAVELENGTH)


class ChainRequests:
    """One library call sequence per request, cycling over the chains."""

    def __init__(self, spec: Spec, seed: int):
        import tmmcavity

        self.spec = spec
        self.tc = tmmcavity
        self.descs = chain_descriptions(spec, seed)
        self.chains = [build_chain(d) for d in self.descs]
        self.pump = tmmcavity.PumpSpec.one_sided(POWER_W, WAVELENGTH)
        self.body = self._dynamic if spec.name == "chain_dynamic" else self._noise

    def request(self, i: int) -> dict:
        return self.body(self.chains[i % len(self.chains)])

    def collect(self, result: dict) -> dict:
        return result

    def _dynamic(self, chain) -> dict:
        return self.tc.mim.evaluate_chain(chain, self.pump)

    def _noise(self, chain) -> dict:
        tc = self.tc
        chain = tc.noise.attach_loss_modes(chain)
        fields = tc.statics.solve_static(chain, self.pump)
        pol = chain.mobile.pol
        f0 = tc.statics.static_force(fields, pol, chain.k0)
        ops = tc.noise.operator_fields(chain)
        d_coeff = tc.noise.diffusion(fields, ops, pol, chain.k0)
        return {"intensity": float(fields.intensity), "F0": float(f0),
                "D": float(d_coeff)}


def make_job(spec: Spec, seed: int, workdir: str):
    if spec.is_mim:
        return MimCommand(spec, seed, workdir)
    return ChainRequests(spec, seed)
