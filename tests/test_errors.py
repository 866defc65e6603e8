"""The error contract: two bases behind the CLI exit codes."""

import inspect

import pytest

from oscent import cli, errors
from oscent.errors import OscentInputError, OscentNumericalError

# Every narrow class with its exit-code base and its builtin base.
CONTRACT = {
    "AlphaOutOfDomainError": (OscentInputError, ValueError),
    "EmptySubsystemError": (OscentInputError, ValueError),
    "IndexOutOfRangeError": (OscentInputError, IndexError),
    "InvalidModelError": (OscentInputError, ValueError),
    "OverlappingGroupsError": (OscentInputError, ValueError),
    "AsymmetricInputError": (OscentNumericalError, ValueError),
    "ComplexEigenvalueError": (OscentNumericalError, RuntimeError),
    "CrossBlockNotZeroError": (OscentNumericalError, ValueError),
    "DegenerateDesignError": (OscentNumericalError, ValueError),
    "DegenerateParametersError": (OscentNumericalError, ValueError),
    "NoConvergenceError": (OscentNumericalError, RuntimeError),
    "NotPositiveDefiniteError": (OscentNumericalError, ValueError),
    "SingularMatrixError": (OscentNumericalError, ValueError),
    "SubHeisenbergError": (OscentNumericalError, ValueError),
    "UnpairedSpectrumError": (OscentNumericalError, RuntimeError),
    "UnstableSystemError": (OscentNumericalError, ValueError),
}
EXIT_CODE = {OscentInputError: 2, OscentNumericalError: 3}


def narrow_classes():
    return {name: cls for name, cls in vars(errors).items()
            if inspect.isclass(cls) and issubclass(cls, Exception)
            and cls not in EXIT_CODE}


def test_every_class_has_one_base_and_keeps_its_builtin():
    found = narrow_classes()
    assert set(found) == set(CONTRACT)
    for name, cls in found.items():
        base, builtin = CONTRACT[name]
        assert [b for b in EXIT_CODE if issubclass(cls, b)] == [base], name
        assert issubclass(cls, builtin), name


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_main_maps_each_class_to_its_exit_code(name, monkeypatch, capsys):
    cls = narrow_classes()[name]

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_run", fail)
    assert cli.main(["ghoc-sweep"]) == EXIT_CODE[CONTRACT[name][0]]
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: boom\n"


@pytest.mark.parametrize("exc", [ValueError("boom"), NotADirectoryError("boom"),
                                 PermissionError("boom"), FileNotFoundError("boom")])
def test_main_treats_builtin_value_and_os_errors_as_bad_input(exc, monkeypatch, capsys):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_run", fail)
    assert cli.main(["ghoc-sweep"]) == 2
    assert capsys.readouterr().err == "error: boom\n"
