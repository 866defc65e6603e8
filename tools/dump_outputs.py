"""Write every user-facing output of oscent into one directory.

    python3 tools/dump_outputs.py OUTDIR

Run it from two checkouts and compare them with ``diff -r OUTDIR_A OUTDIR_B``:
an empty diff means the two versions print the same bytes. ``plan`` lists
what the dump writes: its input files (model files and a sweep table), then
its runs in order, each with its status label, argv, output file and exit
code. The runs cover the ``-h`` text of every parser and the argparse
refusals, at ``COLUMNS=80``; the default CSV and ``--json`` output of every
sweep and fit; sweeps and model files that take each route of the library;
refusals of bad models and sweeps; and the standard output of every script
in ``demos/``. ``status.txt`` gets the exit code and standard error of every
labelled run, and a refused command writes no ``--out`` file.
``tests/test_tools.py`` checks a dump against its plan.

It imports ``oscent`` from this checkout's ``src/`` and uses nothing else
beyond the standard library.
"""

import contextlib
import io
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from oscent import cli, experiments, models  # noqa: E402

KAPPAS = tuple(f"{k:g}" for k in experiments.DEFAULT_KAPPAS)


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


# Each is saved with save_model and run through measures and negativity.
MODELS = {
    "twomode": models.TwoMode(A=5.0, B=20.0, C=7.5),
    "ghoc": models.TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.2, Z=1.0),
    "chain_qp": qp_chain(),
    "ring": models.CircularLattice(N=16, k=0.1, kappa=4.0),
}

# Two cuts per model, 1-based as on the command line. The chain's last cut
# covers every site, so the whole state reaches the negativity through a
# covering index list.
CUTS = {
    "twomode": [("1", "2"), ("2", "1")],
    "ghoc": [("1", "2"), ("2", "1")],
    "chain_qp": [("1,2,3", "4,5,6,7"), ("1,5,9", "2,12"), ("1,3,5", "7,9,11"),
                 ("8,2,12,4,10,6", "5,1,11,3,9,7")],
    "ring": [("1,2,3,4", "5,6,7,8"), ("1,2", "9,10")],
}

# Extra ``measures --subsystem`` runs per model, by file tag: "six" is a
# multi-mode reduction with a live q-p shear, and "whole" lists every site
# in scrambled order with one repeat, so that it reads as the default report.
SUBSETS = {
    "chain_qp": {"six": "1,3,5,7,9,11", "whole": "7,3,12,1,9,5,11,2,8,4,10,6,3"},
}

# A 4-site chain whose state is not certified: site 1 is very soft and
# weakly coupled (omega runs from 9.9e-14 to 1.5), so the reports below take
# the checked route, and the cut 2 | 3 undoes the live q-p shear of its
# sites.
SOFT_CHAIN = models.model_from_dict({
    "variant": "GeneralizedChain",
    "K": [[1e-26, 1e-14, 0.0, 0.0], [1e-14, 1.0, 0.3, 0.0],
          [0.0, 0.3, 2.0, 0.4], [0.0, 0.0, 0.4, 1.5]],
    "Y": [0.0, 0.2, -0.1, 0.15],
})

# Runs on the SOFT_CHAIN file, by output stem (also the status label):
# (exit code, argv).
SOFT_CHAIN_RUNS = {
    "measures_soft_chain_sub": (0, ["measures", "--subsystem", "2,3"]),
    "negativity_soft_chain": (0, ["negativity", "--group1", "2", "--group2", "3"]),
    # Pure by construction: the exact values, without a solve.
    "measures_soft_chain_whole": (0, ["measures"]),
    # The qq block of sites 1, 2 fails the kernel's test.
    "refused_measures_soft_chain_singular_qq": (3, ["measures", "--subsystem", "1,2"]),
}

# Model files outside each model's domain, by tag, as raw JSON text;
# measures and negativity both refuse each (exit 2).
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

# Sweeps beyond the defaults, by status label: (output stem, argv).
SWEEPS = {
    # Rings below the certificate's margin (k = 1e-22): the kernel tests
    # every window's qq itself, and every window passes.
    "lattice-size uncertified": ("lattice_size_uncertified",
                                 ["lattice-size", "--k", "1e-22", "--grid", "40:200:2",
                                  "--kappas", "1,64"]),
    # The default grid at k = 5e-22: the stacks of N = 20..220 are certified
    # and those of N = 240..500 are not, so the sequence as a whole is not
    # and the kernel tests every window of every size.
    "lattice-size mixed certificate": ("lattice_size_mixed_certificate",
                                       ["lattice-size", "--k", "5e-22", "--kappas", "1,64"]),
    # Groups of unequal size, which no reflection of the ring swaps, so both
    # ring sweeps solve each window whole (every default window splits into
    # even and odd halves).
    "lattice_size_n1_3_n2_4": ("lattice_size_n1_3_n2_4",
                               ["lattice-size", "--n1", "3", "--n2", "4"]),
    "lattice_d_n1_50_n2_40": ("lattice_d_n1_50_n2_40",
                              ["lattice-d", "--n1", "50", "--n2", "40"]),
    # A block of all 40 sites: every rotation and reflection keeps it, so
    # each split n1 | 40 - n1 shares its class with 40 - n1 | n1, and
    # 20 | 20 is a mirror split.
    "lattice-adjacent whole ring": ("lattice_adjacent_whole_ring",
                                    ["lattice-adjacent", "--N", "40", "--block", "40",
                                     "--grid", "0:40:41", "--kappas", "1,8"]),
    # n1 falling from 100 to 0: the splits solved whole reach the kernel
    # with c = 0, 99, 98, ..., 51, the reverse of the order it solves them in.
    "lattice-adjacent descending": ("lattice_adjacent_descending",
                                    ["lattice-adjacent", "--grid", "100:0:101"]),
}

# Sweeps that must be refused, by file stem: (exit code, argv).
REFUSED = {
    "twomode_equal_ab": (2, ["twomode-sweep", "--A", "5", "--B", "5"]),
    "twomode_equal_ab_inside_disc": (2, ["twomode-sweep", "--A", "5", "--B", "5",
                                         "--grid", "0:1:2"]),
    "ghoc_overflow": (2, ["ghoc-sweep", "--X1", "1e308", "--Z", "1e308"]),
    "lattice_size_negative_kappa": (2, ["lattice-size", "--kappas", "-1"]),
    # The first kappa is unstable (k = 0), the second invalid, and the first
    # is the one reported.
    "lattice_size_unstable_then_negative_kappa": (3, ["lattice-size", "--k", "0",
                                                      "--kappas", "1,-1"]),
    # The window is the whole ring, whose qq fails the kernel's test.
    "lattice_size_near_singular_window": (3, ["lattice-size", "--k", "1e-22",
                                              "--grid", "20:20:1", "--kappas", "64"]),
    # Two orders that print alike.
    "twomode_alphas_one_column": (2, ["twomode-sweep", "--grid", "0:1:2",
                                      "--alphas", "2,2.0000001"]),
}

# A table on which fit-kappa's trial steps overflow kappa**c and the fit
# gives up (exit 3) with one error line and no numpy warning.
UNFITTABLE = ("N,kappa,log_negativity,negativity\n"
              + "".join(f"100,{2**j},{e},0\n"
                        for j, e in enumerate([0.9, -0.7, -1.3, -0.6, 0.0, -2.3, -0.2])))

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
    return list(cli._COMMANDS)


def plan(out):
    """What the dump into directory ``out`` writes: ``(inputs, runs)``.

    ``inputs`` maps each file written before the runs to its model (written
    by ``save_model``) or its exact text. ``runs`` lists ``(label, argv,
    output, code)`` in order: the status label, the argv, the output file's
    name in ``out`` and the exit code. A run labelled None runs the parser
    alone and gets no status line; its output file records its exit code,
    standard output and standard error. An argv that starts with
    ``sys.executable`` runs as its own process in ``out``, its standard
    output written to the output file. Any other argv goes to ``cli.main``
    in process and writes its own ``--out`` file.
    """
    def path(name):
        return os.path.join(out, name)

    inputs = {}
    runs = [(None, ["-h"], "help.txt", 0)]
    runs += [(None, [command, "-h"], f"help_{command.replace('-', '_')}.txt", 0)
             for command in subcommands()]
    runs += [(None, argv, f"refusal_{name}.txt", 2) for name, argv in REFUSALS.items()]

    def add(label, argv, output, code=0):
        runs.append((label, argv + ["--out", path(output)], output, code))

    formats = (("csv", []), ("json", ["--json"]))
    for name in ("twomode-sweep", "ghoc-sweep", "lattice-d", "lattice-adjacent",
                 "lattice-size"):
        stem = name.replace("-", "_")
        add(name, [name], f"{stem}.csv")
        add(f"{name} --json", [name, "--json"], f"{stem}.json")
    for label, (stem, argv) in SWEEPS.items():
        add(label, argv, f"{stem}.csv")
    for kappa in KAPPAS:
        for ext, flag in formats:
            add(f"fit-cft {kappa} {ext}",
                    ["fit-cft", "--in", path("lattice_adjacent.csv"), "--kappa", kappa] + flag,
                    f"fit_cft_{kappa}.{ext}")
    for ext, flag in formats:
        add(f"fit-kappa {ext}", ["fit-kappa", "--in", path("lattice_size.csv")] + flag,
                f"fit_kappa.{ext}")

    for name, model in MODELS.items():
        inputs[f"model_{name}.json"] = model
        on_model = ["--model", path(f"model_{name}.json")]
        subsets = [("all", []), ("sub", ["--subsystem", "1,2"]), ("all_json", ["--json"])]
        for tag, subset in SUBSETS.get(name, {}).items():
            subsets += [(tag, ["--subsystem", subset]),
                        (f"{tag}_json", ["--subsystem", subset, "--json"])]
        for tag, extra in subsets:
            add(f"measures {name} {tag}", ["measures"] + on_model + extra,
                    f"measures_{name}_{tag}.out")
        for i, (group1, group2) in enumerate(CUTS[name]):
            for tag, extra in (("", []), ("_json", ["--json"])):
                add(f"negativity {name} {i}{tag}",
                        ["negativity"] + on_model
                        + ["--group1", group1, "--group2", group2] + extra,
                        f"negativity_{name}_{i}{tag}.out")

    inputs["model_soft_chain.json"] = SOFT_CHAIN
    for stem, (code, argv) in SOFT_CHAIN_RUNS.items():
        add(stem, argv + ["--model", path("model_soft_chain.json")], f"{stem}.out", code)
    for name, text in BAD_MODELS.items():
        inputs[f"model_bad_{name}.json"] = text + "\n"
        on_model = ["--model", path(f"model_bad_{name}.json")]
        add(f"measures bad {name}", ["measures"] + on_model,
                f"refused_measures_{name}.out", 2)
        add(f"negativity bad {name}",
                ["negativity"] + on_model + ["--group1", "1", "--group2", "2"],
                f"refused_negativity_{name}.out", 2)
    for stem, (code, argv) in REFUSED.items():
        add(f"refused {stem}", argv, f"refused_{stem}.out", code)
    inputs["fit_kappa_unfittable.csv"] = UNFITTABLE
    add("refused fit_kappa_unfittable",
            ["fit-kappa", "--in", path("fit_kappa_unfittable.csv")],
            "refused_fit_kappa_unfittable.out", 3)

    demos = os.path.join(ROOT, "demos")
    runs += [(f"demo {script}", [sys.executable, os.path.join(demos, script)],
              f"demo_{script[:-3]}.txt", 0)
             for script in sorted(os.listdir(demos)) if script.endswith(".py")]
    return inputs, runs


def run_cli(argv):
    """Exit code, stdout and stderr of one CLI call in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/dump_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = os.path.abspath(args[0])
    os.makedirs(out, exist_ok=True)
    os.environ["COLUMNS"] = "80"
    env = dict(os.environ, PYTHONPATH=SRC)

    inputs, runs = plan(out)
    for name, content in inputs.items():
        if isinstance(content, str):
            write_text(os.path.join(out, name), content)
        else:
            models.save_model(content, os.path.join(out, name))
    status = []
    for label, argv, output, _ in runs:
        if argv[:1] == [sys.executable]:
            done = subprocess.run(argv, capture_output=True, env=env, cwd=out)
            with open(os.path.join(out, output), "wb") as fh:
                fh.write(done.stdout)
            code, err = done.returncode, done.stderr.decode("utf-8", "replace")
        else:
            code, stdout, err = run_cli(argv)
            if label is None:
                write_text(os.path.join(out, output),
                           f"exit {code}\n--- stdout\n{stdout}--- stderr\n{err}")
                continue
        status.append(f"{label}: exit {code}\n{err}")
    write_text(os.path.join(out, "status.txt"), "".join(status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
