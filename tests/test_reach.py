"""``tools/reach.py`` sorts every function line into one class: reached
by a non-test entry, by tier-1 only, or by nothing.  Checked on a small
synthetic module, not on the whole census."""

import importlib.util
import pathlib
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

SOURCE = textwrap.dedent('''\
    LIMIT = [n * 2 for n in range(3)]


    def entry():
        total = helper()
        return total + 1


    def helper():
        return sum(n for n in range(3))


    def tested():
        return 2


    def never():
        first = 1
        second = first + 1
        return second


    def outer():
        def inner():
            return 3
        return inner


    class Box:
        size = 3

        def open(self):
            return self.size
''')


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reach():
    return load(ROOT / "tools" / "reach.py", "reach")


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    return path


def test_function_lines_skip_module_code_and_class_bodies(reach, sample):
    functions = reach.function_lines(sample)
    named = {name: sorted(lines) for (_, _, name), lines in functions.items()}
    # Each function holds its def line and its body; the comprehensions
    # count with the function around them, or not at all at module level.
    assert named == {"entry": [4, 5, 6], "helper": [9, 10],
                     "tested": [13, 14], "never": [17, 18, 19, 20],
                     "outer": [23, 26], "inner": [24, 25],
                     "open": [32, 33]}


def test_classify_by_the_entry_that_reached_a_function(reach, sample):
    functions = reach.function_lines(sample)
    module = load(sample, "sample")
    prefix = str(sample.parent)
    with reach.Recorder(prefix) as entries:
        module.entry()
        module.outer()
    with reach.Recorder(prefix) as tests:
        module.entry()
        module.tested()
        module.Box().open()
        module.outer()()
    # The recorder sees the generator expression too; only functions
    # are census units.
    assert {key[2] for key in entries.keys()} == {"entry", "helper",
                                                 "<genexpr>", "outer"}
    classes = reach.classify(functions, entries.keys(), tests.keys())
    assert classes == {str(sample): {"reached": 3 + 2 + 2,
                                     "tier-1": 2 + 2 + 2,
                                     "never": 4}}
