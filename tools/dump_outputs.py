"""Write every user-facing output of oscent into one directory.

    python3 tools/dump_outputs.py OUTDIR

Run it from two checkouts and compare them with ``diff -r OUTDIR_A OUTDIR_B``:
an empty diff means the two versions print the same bytes. The directory gets

* the default CSV and ``--json`` output of ``twomode-sweep``, ``ghoc-sweep``,
  ``lattice-d``, ``lattice-adjacent`` and ``lattice-size``, and of
  ``fit-cft`` (every default kappa) and ``fit-kappa`` on those tables;
* ``lattice-size`` on rings whose stack is not certified (``UNCERTIFIED``),
  so that the negativity kernel's eigenvalue-only test runs, and on the
  default grid at a k where only the smaller rings are certified
  (``MIXED_CERTIFICATE``), so that the test runs on a sequence of stacks
  some of which are certified;
* ``lattice-size`` and ``lattice-d`` on windows of unequal size
  (``WHOLE_WINDOW``), which no reflection of the ring maps onto each other,
  so that both ring sweeps also take the whole-window route under the gate
  (every default ``lattice-size`` and ``lattice-d`` window is split into
  even and odd halves);
* ``lattice-adjacent`` on a block that is the whole ring (``WHOLE_RING``),
  where every rotation and reflection keeps the member set, so that the
  symmetry classes of its splits come from the whole dihedral orbit, and
  the split n1 = 20 is a mirror one;
* ``lattice-adjacent`` on the grid n1 = 100, 99, ..., 0 (``DESCENDING``),
  so that the splits of one kernel call come with falling column counts
  c, the reverse of the order the kernel solves them in;
* four model files written by ``save_model`` (two-mode, generalized
  two-mode, a seeded 12-site chain with q-p coupling, a 16-site ring) and
  the ``measures`` and ``negativity`` output on each, plus both on a
  six-mode subset of the chain (``SUBSETS``), a multi-mode reduction with
  a live q-p shear;
* on the chain, ``measures --subsystem`` listing every site in scrambled
  order with one site repeated (``SUBSETS``) and a ``negativity`` cut whose
  two groups cover every site (the last of ``CUTS``), so that the whole
  state reaches both reports through a covering index list as well as by
  default;
* a model file whose state is not certified (``SOFT_CHAIN``) and the
  ``SOFT_CHAIN_RUNS`` on it, so that reports take the checked route;
* the refusals of model files that ``save_model`` will not write
  (``BAD_MODELS``, written as raw JSON, each run through ``measures`` and
  ``negativity``) and of sweeps with parameters outside a model's domain
  (``REFUSED``); their exit codes and messages go to ``status.txt``, and
  a refused command writes no ``--out`` file;
* the standard output of every script in ``demos/``;
* the ``-h`` text of the top-level parser (``help.txt``) and of every
  subcommand (``help_<command>.txt``), and the argparse refusals in
  ``REFUSALS`` (``refusal_<name>.txt``), each with its exit code, standard
  output and standard error; ``COLUMNS`` is set to 80 so that the text does
  not depend on the terminal;
* ``status.txt``: the exit code and standard error of every command.

It imports ``oscent`` from this checkout's ``src/`` and uses nothing else
beyond the standard library.
"""

import argparse
import contextlib
import io
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from oscent import cli, models  # noqa: E402

KAPPAS = ("1", "2", "4", "8", "16", "32", "64")


def qp_chain(n=12, seed=12):
    """GeneralizedChain with random K and Y whose K - Y**2 is diagonally dominant."""
    rng = random.Random(seed)
    k = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k[i][j] = k[j][i] = rng.uniform(-0.3, 0.3)
    y = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    for i in range(n):
        k[i][i] = 1.0 + y[i] ** 2 + sum(abs(v) for v in k[i]) + rng.uniform(0.0, 1.0)
    return models.model_from_dict({"variant": "GeneralizedChain", "K": k, "Y": y})


MODELS = {
    "twomode": models.TwoMode(A=5.0, B=20.0, C=7.5),
    "ghoc": models.TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.2, Z=1.0),
    "chain_qp": qp_chain(),
    "ring": models.CircularLattice(N=16, k=0.1, kappa=4.0),
}

# Two cuts per model, 1-based as on the command line.
CUTS = {
    "twomode": [("1", "2"), ("2", "1")],
    "ghoc": [("1", "2"), ("2", "1")],
    "chain_qp": [("1,2,3", "4,5,6,7"), ("1,5,9", "2,12"), ("1,3,5", "7,9,11"),
                 ("8,2,12,4,10,6", "5,1,11,3,9,7")],
    "ring": [("1,2,3,4", "5,6,7,8"), ("1,2", "9,10")],
}


# Extra ``measures --subsystem`` runs per model, by file tag.
SUBSETS = {
    "chain_qp": {"six": "1,3,5,7,9,11", "whole": "7,3,12,1,9,5,11,2,8,4,10,6,3"},
}

# A 4-site chain whose state is not certified: site 1 is very soft and
# weakly coupled (omega runs from 9.9e-14 to 1.5), so the reports below take
# the checked route, and the cut 2 | 3 undoes the live q-p shear of its
# sites. The whole system is pure by construction and reads its exact
# values without a solve; the qq block of sites 1, 2 fails the kernel's
# test (exit 3).
SOFT_CHAIN = models.model_from_dict({
    "variant": "GeneralizedChain",
    "K": [[1e-26, 1e-14, 0.0, 0.0], [1e-14, 1.0, 0.3, 0.0],
          [0.0, 0.3, 2.0, 0.4], [0.0, 0.0, 0.4, 1.5]],
    "Y": [0.0, 0.2, -0.1, 0.15],
})

# Runs on the SOFT_CHAIN file, by output stem (also the status label).
SOFT_CHAIN_RUNS = {
    "measures_soft_chain_sub": ["measures", "--subsystem", "2,3"],
    "negativity_soft_chain": ["negativity", "--group1", "2", "--group2", "3"],
    "measures_soft_chain_whole": ["measures"],
    "refused_measures_soft_chain_singular_qq": ["measures", "--subsystem", "1,2"],
}

# Model files outside each model's domain, by tag, as raw JSON text.
BAD_MODELS = {
    "twomode_a_eq_b": '{"variant": "TwoMode", "A": 5.0, "B": 5.0, "C": 1.0}',
    "ghoc_overflow": '{"variant": "TwoModeGeneralized", "X1": 1e308, "X2": 2.0, '
                     '"Y1": 0.0, "Y2": 0.0, "Z": 1e308}',
    "chain_asymmetric": '{"variant": "GeneralizedChain", "K": [[2.0, 0.5], [0.0, 2.0]], '
                        '"Y": [0.0, 0.0]}',
    "chain_y_overflow": '{"variant": "GeneralizedChain", "K": [[2.0, 0.0], [0.0, 2.0]], '
                        '"Y": [1e200, 0.0]}',
    "ring_n2": '{"variant": "CircularLattice", "N": 2, "k": 0.1, "kappa": 1.0}',
}

# lattice-size on rings below the certificate's margin (k = 1e-22): the
# kernel tests every window's qq itself, and every window passes.
UNCERTIFIED = ["lattice-size", "--k", "1e-22", "--grid", "40:200:2", "--kappas", "1,64"]

# lattice-size on the default grid at k = 5e-22: the stacks of N = 20..220
# are certified and those of N = 240..500 are not, so the sequence as a
# whole is not and the kernel tests every window of every size.
MIXED_CERTIFICATE = ["lattice-size", "--k", "5e-22", "--kappas", "1,64"]

# The two ring sweeps on groups of unequal size, by file stem: no reflection
# of the ring swaps them, so each window is solved whole.
WHOLE_WINDOW = {
    "lattice_size_n1_3_n2_4": ["lattice-size", "--n1", "3", "--n2", "4"],
    "lattice_d_n1_50_n2_40": ["lattice-d", "--n1", "50", "--n2", "40"],
}

# lattice-adjacent on a block of all 40 sites of the ring: each split n1 |
# 40 - n1 shares its class with 40 - n1 | n1, and 20 | 20 is a mirror split.
WHOLE_RING = ["lattice-adjacent", "--N", "40", "--block", "40", "--grid", "0:40:41",
              "--kappas", "1,8"]

# lattice-adjacent with n1 falling from 100 to 0: the splits solved whole
# reach the kernel with c = 0, 99, 98, ..., 51.
DESCENDING = ["lattice-adjacent", "--grid", "100:0:101"]

# Sweeps that must be refused, by file stem. In the unstable-then-negative
# one the first kappa is unstable (k = 0), the second invalid, and the first
# is the one reported; the near-singular window is the whole ring, whose qq
# fails the kernel's test (exit 3); the two orders print alike as 2.
REFUSED = {
    "twomode_equal_ab": ["twomode-sweep", "--A", "5", "--B", "5"],
    "twomode_equal_ab_inside_disc": ["twomode-sweep", "--A", "5", "--B", "5",
                                     "--grid", "0:1:2"],
    "ghoc_overflow": ["ghoc-sweep", "--X1", "1e308", "--Z", "1e308"],
    "lattice_size_negative_kappa": ["lattice-size", "--kappas", "-1"],
    "lattice_size_unstable_then_negative_kappa": ["lattice-size", "--k", "0",
                                                  "--kappas", "1,-1"],
    "lattice_size_near_singular_window": ["lattice-size", "--k", "1e-22",
                                          "--grid", "20:20:1", "--kappas", "64"],
    "twomode_alphas_one_column": ["twomode-sweep", "--grid", "0:1:2",
                                  "--alphas", "2,2.0000001"],
}

# argparse refusals, by file stem: each exits 2 before any command runs.
REFUSALS = {
    "no_command": [],
    "unknown_command": ["bogus"],
    "unknown_flag": ["fit-cft", "--in", "adj.csv", "--kappa", "4", "--bogus"],
    "missing_in": ["fit-kappa"],
    "missing_kappa": ["fit-cft", "--in", "adj.csv"],
}


def subcommands():
    """Names of the subcommands, in the order of the top-level help."""
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def run_parser(path, argv):
    """Write the exit code, stdout and stderr of an argv that argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def run(status, label, argv):
    """Run one CLI command in process; record its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    status.append(f"{label}: exit {code}\n{err.getvalue()}")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/dump_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = os.path.abspath(args[0])
    os.makedirs(out, exist_ok=True)

    def path(name):
        return os.path.join(out, name)

    os.environ["COLUMNS"] = "80"
    run_parser(path("help.txt"), ["-h"])
    for command in subcommands():
        run_parser(path(f"help_{command.replace('-', '_')}.txt"), [command, "-h"])
    for name, refused in REFUSALS.items():
        run_parser(path(f"refusal_{name}.txt"), refused)

    status = []
    for command in ("twomode-sweep", "ghoc-sweep", "lattice-d", "lattice-adjacent",
                    "lattice-size"):
        stem = command.replace("-", "_")
        run(status, command, [command, "--out", path(f"{stem}.csv")])
        run(status, f"{command} --json", [command, "--json", "--out", path(f"{stem}.json")])
    run(status, "lattice-size uncertified", UNCERTIFIED + ["--out",
                                                           path("lattice_size_uncertified.csv")])
    run(status, "lattice-size mixed certificate",
        MIXED_CERTIFICATE + ["--out", path("lattice_size_mixed_certificate.csv")])
    for stem, argv in WHOLE_WINDOW.items():
        run(status, stem, argv + ["--out", path(f"{stem}.csv")])
    run(status, "lattice-adjacent whole ring",
        WHOLE_RING + ["--out", path("lattice_adjacent_whole_ring.csv")])
    run(status, "lattice-adjacent descending",
        DESCENDING + ["--out", path("lattice_adjacent_descending.csv")])
    for kappa in KAPPAS:
        for ext, flag in (("csv", []), ("json", ["--json"])):
            run(status, f"fit-cft {kappa} {ext}",
                ["fit-cft", "--in", path("lattice_adjacent.csv"), "--kappa", kappa,
                 "--out", path(f"fit_cft_{kappa}.{ext}")] + flag)
    for ext, flag in (("csv", []), ("json", ["--json"])):
        run(status, f"fit-kappa {ext}",
            ["fit-kappa", "--in", path("lattice_size.csv"),
             "--out", path(f"fit_kappa.{ext}")] + flag)

    for name, model in MODELS.items():
        model_file = path(f"model_{name}.json")
        models.save_model(model, model_file)
        runs = [("all", []), ("sub", ["--subsystem", "1,2"]), ("all_json", ["--json"])]
        for tag, subset in SUBSETS.get(name, {}).items():
            runs += [(tag, ["--subsystem", subset]),
                     (f"{tag}_json", ["--subsystem", subset, "--json"])]
        for tag, extra in runs:
            run(status, f"measures {name} {tag}",
                ["measures", "--model", model_file,
                 "--out", path(f"measures_{name}_{tag}.out")] + extra)
        for i, (group1, group2) in enumerate(CUTS[name]):
            for tag, extra in (("", []), ("_json", ["--json"])):
                run(status, f"negativity {name} {i}{tag}",
                    ["negativity", "--model", model_file, "--group1", group1,
                     "--group2", group2,
                     "--out", path(f"negativity_{name}_{i}{tag}.out")] + extra)

    soft_file = path("model_soft_chain.json")
    models.save_model(SOFT_CHAIN, soft_file)
    for stem, argv in SOFT_CHAIN_RUNS.items():
        run(status, stem, argv + ["--model", soft_file, "--out", path(f"{stem}.out")])

    for name, text in BAD_MODELS.items():
        model_file = path(f"model_bad_{name}.json")
        with open(model_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        run(status, f"measures bad {name}",
            ["measures", "--model", model_file, "--out", path(f"refused_measures_{name}.out")])
        run(status, f"negativity bad {name}",
            ["negativity", "--model", model_file, "--group1", "1", "--group2", "2",
             "--out", path(f"refused_negativity_{name}.out")])
    for stem, argv in REFUSED.items():
        run(status, f"refused {stem}", argv + ["--out", path(f"refused_{stem}.out")])

    env = dict(os.environ, PYTHONPATH=SRC)
    demos = os.path.join(ROOT, "demos")
    for script in sorted(os.listdir(demos)):
        if not script.endswith(".py"):
            continue
        done = subprocess.run([sys.executable, os.path.join(demos, script)],
                              capture_output=True, env=env, cwd=out)
        with open(path(f"demo_{script[:-3]}.txt"), "wb") as fh:
            fh.write(done.stdout)
        status.append(f"demo {script}: exit {done.returncode}\n"
                      f"{done.stderr.decode('utf-8', 'replace')}")

    with open(path("status.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
