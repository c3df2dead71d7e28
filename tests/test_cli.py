"""CLI surface: emission formats, exit codes, caching, report files."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from catwb.cache import ResultCache
from catwb.cli import SUITES, build_parser, main

SCHEMA_DIR = Path(__file__).parent.parent / "src/catwb/schemas"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# sha256 of `catwb export-poset <type> --m <m>` for "<type>" (m = 1) and
# "<type>/<m>"; pinned so a change to the root tables, the NC sort order, the
# cores or the NC^m order relation shows up as a changed digest
EXPORT_POSET_SHA256 = {
    "A3": "5b6744de2fd6cb025c8d94af6498cb07af27d488560198a74f1f339b557599d2",
    "A3/2": "6791cef4afb15715150e9682dde230b225c718a7b39bead05519cacc397b40f4",
    "B3": "f721d7e0f0696bd27c4d0344e48deb75d42e3702ff6d9833a6fe4161a14d49f7",
    "D4": "04d1c335c63d234cb8370fda984463b22d0b7153aca3bca2869f790ee9690e42",
    "F4": "eb7ca85d22250489f860c38dee09464bed4a6b87a9c4852cf189776d85399d16",
    "H3": "d8a16041874644fa23f595649133d6fc0a689387d69c4973ea81fec1116b153f",
    "H3/2": "9aec441ce1528a6a252e4e26f8ad242edee5ab946c5e13921e1084076c9a4949",
    "H4": "5204f68d15422b2ccf56d17952d1a4bf4c4219f311a3b55bcaf1fa32842a2a24",
}

# sha256 of verify_all.json as `catwb verify --suite all` writes it: every
# record's outcome and the hash of each side's polynomial
VERIFY_ALL_SHA256 = "157c8edede55ce61a077b5c4d42951b358e40454c5ad298c94d32eb3c06170c2"

# sha256, per type, of `ftriangle <type>`, `ftriangle <type> --m 2` and
# `mtriangle <type> --mode formula` in the latex, csv and json formats, in
# that order, followed by str() of the F-triangle and of the formula
# M-triangle
EMISSION_SHA256 = {
    "A1": "d0288f51bd0d8f99bb85585d5b769e5ef4b6ee6e562f639c3083ef4107549248",
    "A2": "dea3adf0fd61aef541c48123a1ce0a82be7232edef33b1cb9f9acbb2ef39f735",
    "A3": "d205160d23ea611965539b6e9fdcbb9a523403786f09646c97d7f275f6fdef7e",
    "A4": "e4b2d6ea4fc48092bee3fcf1ae9c79d59f81fac0ae3c494da8a7452d9cdd1ed7",
    "A5": "d20eece9ba8530c3ed8cbe298aeb6d13bd4b41509b7cd98ce569ba2be88f734c",
    "A6": "49aff8d42fc19c464181c1609dfd2a22d11ca9802390e3baec4ca65c07107229",
    "B2": "db0d7d58308e1194a652f70b7b8c6d08dbda476e241258c083124887b8e1f3dd",
    "B3": "3cd5c7835c03f67fdba628291c57fb7b85034674ae2cdf52ad16cb785b09487f",
    "B4": "c65c53173baae95985144541decd64cb09aee14147f36ad5714753024ee502d6",
    "B5": "acbdf9acfefddf302b47ff6c8157b8aff169b03a1c3c5bfb0de418f4970a0cf1",
    "D4": "f430b2b096eb9ab1672066489770fa847ca330bf7faf93a934950b8ba0806b24",
    "D5": "1a77542509d20573b98167c5403292f2dd880d67a00ccbe28978212a4aebf1d2",
    "D6": "7b392395a9d656a56a61a8f7d5aef1f5ab2c133683c14d826be7873e8b46b79b",
    "E6": "d887eb2bf9e69baabb04a1c5e775413be1570e98c5d1a60df26dbd97d79e9c10",
    "F4": "761c4f363e1324585427f685d9e59cda50794df11feedcdbf2a55f8fa04db10b",
    "H3": "726b90dd88d3310e0065a485ab5af70603b18ec95081a92acda9d02450096db8",
    "H4": "8ad34e4f8a5864d8737b18617285279bcdbb4e6fa30cc2fbccd3287b953de8bd",
    "I2(5)": "b36a88f6fc8cc828e3a0f34511305c927e84e36558edf6afc9f1168e79205346",
}


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def clear_memos():
    """Forget the in-process results that come from type tables, so that the
    tables are read from or written to the cache directory of the next
    command."""
    from catwb.wgroup import _type_table

    _type_table.cache_clear()


@pytest.fixture
def fresh_memos():
    clear_memos()
    yield
    clear_memos()  # leave no table read from a cache directory to later tests


# memos whose values come from their arguments alone and never from a cache
# directory, so that clear_memos leaves them filled
MEMOS_OF_ARGUMENTS_ALONE = {
    "catwb.exactmath._dual_kernel",
    "catwb.exactmath._fm_kernel",
    "catwb.exactmath.falling",
    "catwb.fmverify.fm_lhs",
    "catwb.ftriangle._f_closed_irr",
    "catwb.ftriangle.dual_f_triangle",
    "catwb.ftriangle.f_closed",
    "catwb.ncposet._build_ncm",
    "catwb.rootdata.RootSystemType.parse",
    "catwb.rootdata._catalog_codes",
    "catwb.rootdata._classify_diagram",
    "catwb.rootdata.deletion_types",
    "catwb.report._sha256",
    "catwb.wgroup._backend_for",
    "catwb.wgroup._build_nc",
    "catwb.wgroup._enumerate_group",
}


def package_memos() -> dict:
    """Every functools.lru_cache memo of the catwb modules, at module level
    or on a class, by qualified name."""
    import importlib
    import pkgutil

    import catwb

    memos = {}
    for info in pkgutil.iter_modules(catwb.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"catwb.{info.name}")
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for name in list(vars(owner)):
                value = getattr(owner, name)
                if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                    memos[f"{value.__module__}.{value.__qualname__}"] = value
    return memos


class TestEmission:
    def test_ftriangle_a1(self, capsys):
        rc, out = run(capsys, ["ftriangle", "A1"])
        assert rc == 0
        assert out.strip() == "m x + y + 1"

    def test_alias_outputs_match(self, capsys):
        _, out1 = run(capsys, ["ftriangle", "D2"])
        _, out2 = run(capsys, ["ftriangle", "A1xA1"])
        assert out1 == out2

    def test_json_validates(self, capsys):
        rc, out = run(capsys, ["ftriangle", "H3", "--format", "json"])
        assert rc == 0
        schema = json.loads((SCHEMA_DIR / "mpoly.schema.json").read_text())
        jsonschema.validate(json.loads(out), schema)

    def test_csv(self, capsys):
        rc, out = run(capsys, ["ftriangle", "A2", "--format", "csv", "--m", "2"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,l,coeff"
        rows = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[1:]}
        assert rows[("1", "0")] == "6"

    def test_mtriangle_brute(self, capsys):
        rc, out = run(capsys, ["mtriangle", "A1", "--mode", "brute", "--m", "3"])
        assert rc == 0
        assert out.strip() == "xy - 3 y + 3"

    def test_mtriangle_brute_needs_m(self, capsys):
        assert main(["mtriangle", "A1", "--mode", "brute"]) == 2


class TestPinnedOutputs:
    @pytest.mark.parametrize("s", sorted(EMISSION_SHA256))
    def test_emission_bytes_are_pinned(self, capsys, s):
        from catwb.ftriangle import f_closed
        from catwb.ncposet import m_triangle_formula
        from catwb.rootdata import ir

        digest = hashlib.sha256()
        for fmt in ("latex", "csv", "json"):
            for argv in (["ftriangle", s], ["ftriangle", s, "--m", "2"], ["mtriangle", s, "--mode", "formula"]):
                rc, out = run(capsys, argv + ["--format", fmt])
                assert rc == 0
                digest.update(out.encode())
        digest.update(str(f_closed(ir(s))).encode())
        digest.update(str(m_triangle_formula(ir(s))).encode())
        assert digest.hexdigest() == EMISSION_SHA256[s]

    def test_verify_all_report_is_pinned(self, capsys, tmp_path, fresh_memos):
        rc, _ = run(capsys, ["verify", "--suite", "all", "--cache-dir", str(tmp_path)])
        assert rc == 1  # criterion 10's D4 cases at m = 2, 3 stay red
        digest = hashlib.sha256((tmp_path / "verify_all.json").read_bytes()).hexdigest()
        assert digest == VERIFY_ALL_SHA256

    def test_verify_all_never_reads_the_pair_relation(self, capsys, monkeypatch, tmp_path, fresh_memos):
        from catwb.ncposet import NCmPoset

        def refuse(ncm):
            raise AssertionError(f"verify read the up-lists of {ncm.name}")

        monkeypatch.setattr(NCmPoset, "poset", property(refuse))
        rc, _ = run(capsys, ["verify", "--suite", "all", "--cache-dir", str(tmp_path)])
        assert rc == 1  # criterion 10's D4 cases at m = 2, 3 stay red
        checks = json.loads((tmp_path / "verify_all.json").read_text())["checks"]
        pinned = json.loads((SRC_DIR.parent / "perfbench/reference/verify_all.json").read_text())
        assert [[c["check"], c["type"], c["mode"], c["m"], c["equal"]] for c in checks] == pinned

    def test_no_command_reads_the_up_lists_of_a_core(self, capsys, monkeypatch, tmp_path, fresh_memos):
        # every command reads the down-sets of NC; the up-lists are derived for the tests and the benchmark alone
        from catwb.wgroup import NCCore

        def refuse(core):
            raise AssertionError(f"the up-lists of NC({core.type}) were read")

        monkeypatch.setattr(NCCore, "poset", property(refuse))
        rc, _ = run(capsys, ["verify", "--suite", "all", "--cache-dir", str(tmp_path)])
        assert rc == 1  # criterion 10's D4 cases at m = 2, 3 stay red
        assert hashlib.sha256((tmp_path / "verify_all.json").read_bytes()).hexdigest() == VERIFY_ALL_SHA256
        for s, m, jumps in (("A2", "3", "1,1"), ("B3", "2", "2,1"), ("D4", "1", "1,1,2")):
            assert run(capsys, ["mtriangle", s, "--mode", "brute", "--m", m])[0] == 0
            assert run(capsys, ["chains", s, "--m", m, "--jumps", jumps])[0] == 0
            assert main(["export-poset", s, "--m", m, "--out", str(tmp_path / f"{s}.json")]) == 0


class TestExitCodes:
    def test_parse_error(self):
        assert main(["ftriangle", "Z9"]) == 2

    def test_budget_error(self):
        assert main(["mtriangle", "E7", "--mode", "brute", "--m", "1"]) == 3

    def test_group_cap_flag(self):
        assert main(["mtriangle", "B3", "--mode", "brute", "--m", "1", "--group-cap", "10"]) == 3

    def test_byte_table_bound(self, capsys):
        # |W(A16)| = 17! is under this cap, but its 272 roots do not fit a byte table
        assert main(["mtriangle", "A16", "--mode", "formula", "--group-cap", str(10**15)]) == 3
        err = capsys.readouterr().err
        assert "272 roots" in err and "at most 255" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ftriangle", "A2", "--m", "-1"],
            ["mtriangle", "A2", "--mode", "brute", "--m", "0"],
            ["chains", "A2", "--m", "1", "--jumps", "1,2"],
            ["chains", "A2", "--m", "1", "--jumps", "x"],
            ["verify", "--suite", "all", "--m-grid", "a"],
            ["verify", "--suite", "carlitz", "--group-cap", "0"],
            ["mtriangle", "E6xA1", "--mode", "brute", "--m", "1"],
            ["verify", "--suite", "chains", "--types", "A2", "--m-grid", "1", "--poset-cap", "0"],
            ["CATWB_POSET_CAP=0", "verify", "--suite", "chains", "--types", "A2", "--m-grid", "1"],
            ["mtriangle", "A2", "--group-cap", "0"],
            ["mtriangle", "A2", "--group-cap", "-5"],
            ["chains", "A2", "--m", "1", "--jumps", "1,1", "--poset-cap", "0"],
            ["export-poset", "A2", "--m", "1", "--out", "unused.json", "--seed", "x"],
            ["CATWB_GROUP_CAP=abc", "mtriangle", "A2"],
            ["CATWB_POSET_CAP=abc", "chains", "A2", "--m", "1", "--jumps", "1,1"],
            ["CATWB_SEED=abc", "dual", "A2"],
            ["CATWB_FORMAT=xml", "ftriangle", "A2"],
            ["chains", "A2", "--m", "1", "--jumps", "3,-1"],
            ["verify", "--suite", "fm", "--types", "ZZ"],
            ["verify", "--suite", "fm", "--types", "A2,ZZ"],
            ["verify", "--suite", "fm", "--m-grid", "0"],
            ["verify", "--suite", "fm", "--m-grid", "-1"],
            ["mtriangle", "A2", "--m", "abc"],
            ["ftriangle", "A2", "--format", "xml"],
            ["verify", "--suite", "x"],
            ["chains", "A2", "--m", "1", "--jumps", "-1,3"],
            ["mtriangle"],
            # filters that leave the suite no gated check
            ["verify", "--suite", "fm", "--types", "D2"],
            ["verify", "--suite", "fm", "--types", "E7"],
            ["verify", "--suite", "dual", "--types", "E7"],
            ["verify", "--suite", "chains", "--m-grid", "4"],
            # an empty filter is not an absent one
            ["verify", "--suite", "recurrence", "--types", ""],
            ["verify", "--suite", "all", "--types", ""],
            ["verify", "--suite", "fm", "--types", "A2,"],
            ["verify", "--suite", "chains", "--m-grid", ""],
            ["verify", "--suite", "all", "--m-grid", ""],
            # a reducible or empty type where an irreducible one is needed
            ["chains", "A1xA1", "--m", "1", "--jumps", "1,1"],
            ["dual", "A1xA2"],
            ["dual", "e"],
            ["chains", "e", "--m", "1", "--jumps", "0"],
            ["mtriangle", "A1", "--mode", "brute"],
        ],
    )
    def test_bad_input_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        # leading NAME=value words set environment variables, as in a shell
        while "=" in argv[0]:
            monkeypatch.setenv(*argv[0].split("=", 1))
            argv = argv[1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # no report is written

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "D4", "--m", "2", "--poset-cap", "10"],
            ["dual", "B3", "--m", "1", "--group-cap", "10"],
            ["verify", "--suite", "dual", "--types", "D4", "--m-grid", "2", "--poset-cap", "10"],
        ],
    )
    def test_dual_honours_the_caps(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("budget exceeded: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["chains", "D4", "--m", "1", "--jumps", "2,2", "--poset-cap", "10"],
            ["chains", "D4", "--m", "1", "--jumps", "2,2", "--group-cap", "10"],
            ["verify", "--suite", "chains", "--types", "D4", "--m-grid", "1", "--poset-cap", "10"],
        ],
    )
    def test_chains_honours_the_caps(self, capsys, monkeypatch, tmp_path, argv):
        # a brute count over budget is no agreement with the formula
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("budget exceeded: ")

    def test_a_negative_jump_names_the_jump_in_either_spelling(self, capsys):
        errs = []
        for argv in (["--jumps", "-1,3"], ["--jumps=-1,3"]):
            assert main(["chains", "A2", "--m", "1", *argv]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == "error: jumps must be non-negative and sum to the rank\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["export-poset", "A2", "--m", "1", "--out", "{missing}/x.json"],
            ["mtriangle", "H3", "--cache-dir", "{file}"],
        ],
        ids=["export-poset-out", "mtriangle-cache-dir"],
    )
    def test_an_unwritable_path_is_a_usage_error(self, capsys, tmp_path, fresh_memos, argv):
        # fresh memos, so that the H3 type table is computed and written
        (tmp_path / "file").write_text("")
        argv = [a.format(missing=tmp_path / "missing", file=tmp_path / "file") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_type_filter_compares_canonical_types(self, capsys, tmp_path):
        def checks(types):
            argv = ["verify", "--suite", "fm", "--types", types, "--m-grid", "1", "--cache-dir", str(tmp_path)]
            assert main(argv) == 0
            capsys.readouterr()
            report = json.loads((tmp_path / "verify_fm.json").read_text())
            return [(c["type"], c["mode"], c["m"]) for c in report["checks"]]

        expected = [("A2", "closed", None), ("A2", "formula", None), ("A2", "brute", 1), ("A2", "brute", 1)]
        assert checks("A2") == checks("I2(3)") == expected


class TestCache:
    def test_warm_cache_is_byte_identical(self, capsys, tmp_path):
        clear_memos()
        for args in (
            ["ftriangle", "B3", "--format", "json", "--cache-dir", str(tmp_path)],
            ["mtriangle", "B2", "--mode", "brute", "--m", "2", "--cache-dir", str(tmp_path)],
            ["mtriangle", "I2(5)", "--format", "csv", "--cache-dir", str(tmp_path)],
        ):
            rc1, out1 = run(capsys, args)
            assert rc1 == 0
            rc2, out2 = run(capsys, args)
            assert rc2 == 0
            assert out1 == out2
        assert ResultCache(tmp_path).path_for("nctypes", "I2(5)").exists()
        assert {p.parent.name for p in tmp_path.rglob("*.json")} == {"nctypes"}  # no core is stored

    @pytest.mark.parametrize(
        "argv,cap",
        [
            (["mtriangle", "B3", "--mode", "brute", "--m", "1"], ["--group-cap", "10"]),
            (["mtriangle", "B3", "--mode", "brute", "--m", "1"], ["--poset-cap", "5"]),
            (["mtriangle", "B3", "--mode", "formula"], ["--group-cap", "10"]),
            (["export-poset", "B3", "--m", "1", "--out", "OUT"], ["--group-cap", "10"]),
        ],
    )
    def test_budgets_hold_on_a_warm_cache(self, capsys, tmp_path, argv, cap):
        args = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(args + cap) == 3
        assert main(args + cache) == 0
        assert main(args + cap + cache) == 3

    def test_result_entries_are_not_served(self, capsys, tmp_path):
        out_file = tmp_path / "out.json"
        commands = [["mtriangle", "A2"], ["export-poset", "A2", "--m", "1", "--out", str(out_file)]]

        def outcome(argv):
            out_file.unlink(missing_ok=True)
            rc, out = run(capsys, argv)
            return rc, out, out_file.read_bytes() if out_file.exists() else None

        uncached = [outcome(argv) for argv in commands]
        cache = ResultCache(tmp_path / "cache")
        for kind, key in (("mtriangle", "A2_formula_msym"), ("poset", "A2_m1")):
            path = cache.path_for(kind, key)
            path.parent.mkdir(parents=True)
            path.write_text("{}")
        assert [outcome(argv + ["--cache-dir", str(cache.dir)]) for argv in commands] == uncached

    def test_cache_dir_serves_one_command_only(self, capsys, tmp_path, fresh_memos):
        from catwb.rootdata import ir
        from catwb.wgroup import char_poly

        rc, _ = run(capsys, ["mtriangle", "A1", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert ResultCache(tmp_path).path_for("nctypes", "A1").exists()
        clear_memos()  # so that the table below is really built
        char_poly(ir("A3"))
        assert not ResultCache(tmp_path).path_for("nctypes", "A3").exists()

    @pytest.mark.parametrize(
        "argv",
        [["export-poset", "A3", "--m", "2", "--out", "OUT"], ["mtriangle", "A3", "--mode", "brute", "--m", "1"]],
        ids=["export-poset", "mtriangle"],
    )
    @pytest.mark.parametrize("corrupt", ["stale_version", "missing_key", "garbage", "another_type"])
    def test_unreadable_core_is_a_miss(self, capsys, monkeypatch, tmp_path, argv, corrupt):
        # a core entry left by an earlier version is never read or rewritten,
        # whatever it holds: cores are only built in memory
        from catwb.ncposet import _build_ncm
        from catwb.rootdata import ir
        from catwb.wgroup import _build_nc, build_nc
        from oracle import core_dump

        def run_in(cache_dir):
            for cached in (_build_nc, _build_ncm):
                cached.cache_clear()  # so that the core is really built
            cache_dir.mkdir(exist_ok=True)
            out_file = cache_dir / "out.json"
            args = [str(out_file) if a == "OUT" else a for a in argv]
            rc, out = run(capsys, args + ["--cache-dir", str(cache_dir)])
            assert rc == 0
            return out.replace(str(out_file), "OUT"), out_file.read_bytes() if out_file.exists() else None

        cold = run_in(tmp_path / "cold")
        # another_type: a well-formed entry of B3 under the key A3, which the
        # loader of earlier versions would have served
        obj = core_dump(build_nc(ir("B3" if corrupt == "another_type" else "A3")))
        if corrupt == "stale_version":
            obj["repr_version"] = 0
        elif corrupt == "missing_key":
            del obj["quot"]
        leftover = ResultCache(tmp_path / "leftover")
        leftover.put("nccore", "A3", obj)
        path = leftover.path_for("nccore", "A3")
        if corrupt == "garbage":
            path.write_bytes(b"\x00 not json")
        entry = path.read_bytes()
        kinds, get = [], ResultCache.get

        def recording_get(cache, kind, key):
            kinds.append(kind)
            return get(cache, kind, key)

        monkeypatch.setattr(ResultCache, "get", recording_get)
        assert run_in(leftover.dir) == cold
        assert "nccore" not in kinds
        assert path.read_bytes() == entry

    @pytest.mark.parametrize("corrupt", ["stale_version", "truncated", "inconsistent"])
    def test_unreadable_type_table_is_a_miss(self, capsys, tmp_path, corrupt, fresh_memos):
        def run_in(cache_dir):
            clear_memos()  # so that the table is read from the cache directory
            rc, out = run(capsys, ["mtriangle", "D4", "--mode", "formula", "--cache-dir", str(cache_dir)])
            assert rc == 0
            return out

        cold = run_in(tmp_path / "cold")
        entry = ResultCache(tmp_path / "cold").path_for("nctypes", "D4").read_bytes()
        obj = json.loads(entry)
        broken = ResultCache(tmp_path / "broken")
        if corrupt == "stale_version":
            obj["repr_version"] = 0
        elif corrupt == "inconsistent":
            obj["mult"][1] += 1  # the multiplicities no longer sum to Cat(D4)
        broken.put("nctypes", "D4", obj)
        if corrupt == "truncated":
            broken.path_for("nctypes", "D4").write_bytes(entry[: len(entry) // 2])
        assert run_in(tmp_path / "broken") == cold
        assert broken.path_for("nctypes", "D4").read_bytes() == entry

    def test_warm_formula_mode_reads_no_core(self, capsys, tmp_path, fresh_memos):
        from catwb.wgroup import _build_nc

        cores = _build_nc.cache_info().currsize
        argv = ["verify", "--suite", "fm", "--types", "E6", "--cache-dir", str(tmp_path)]
        cold = run(capsys, argv), (tmp_path / "verify_fm.json").read_bytes()
        assert ResultCache(tmp_path).path_for("nctypes", "E6").exists()
        clear_memos()
        assert (run(capsys, argv), (tmp_path / "verify_fm.json").read_bytes()) == cold
        assert _build_nc.cache_info().currsize == cores  # no E6 core, cold or warm

    def test_clear_memos_clears_every_memo(self, monkeypatch):
        memos = package_memos()
        assert MEMOS_OF_ARGUMENTS_ALONE <= set(memos)
        cleared = []
        for name, memo in memos.items():
            monkeypatch.setattr(memo, "cache_clear", lambda name=name: cleared.append(name), raising=False)
        clear_memos()
        assert sorted(cleared) == sorted(set(memos) - MEMOS_OF_ARGUMENTS_ALONE)

    def test_export_poset(self, capsys, tmp_path):
        out_file = tmp_path / "poset.json"
        rc, _ = run(capsys, ["export-poset", "A2", "--m", "1", "--out", str(out_file)])
        assert rc == 0
        obj = json.loads(out_file.read_text())
        assert obj["num_elements"] == 5
        schema = json.loads((SCHEMA_DIR / "poset.schema.json").read_text())
        jsonschema.validate(obj, schema)
        # idempotent with a cache
        rc2, _ = run(
            capsys,
            ["export-poset", "A2", "--m", "1", "--out", str(out_file), "--cache-dir", str(tmp_path)],
        )
        assert rc2 == 0
        assert json.loads(out_file.read_text()) == obj

    @pytest.mark.parametrize("type_name", sorted(EXPORT_POSET_SHA256))
    def test_export_poset_bytes_are_pinned(self, capsys, tmp_path, type_name):
        out_file = tmp_path / "poset.json"
        name, _, m = type_name.partition("/")
        rc, _ = run(capsys, ["export-poset", name, "--m", m or "1", "--out", str(out_file)])
        assert rc == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == EXPORT_POSET_SHA256[type_name]

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("poset", "A2_m1", {"ranks": [0, 1, 1, 2]})
        path = cache.path_for("poset", "A2_m1")
        path.write_text(path.read_text()[:-4])
        assert cache.get("poset", "A2_m1") is None

    def test_put_leaves_no_temporary_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("poset", "A2_m1", {"ranks": [0]})
        cache.put("poset", "A2_m1", {"ranks": [0, 1]})
        with pytest.raises(TypeError):
            cache.put("poset", "B2_m1", object())  # not JSON: the write fails
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["A2_m1.json"]
        assert cache.get("poset", "A2_m1") == {"ranks": [0, 1]}

    def test_export_b2_matches_census(self, capsys, tmp_path):
        from catwb.ncposet import rank_census
        from catwb.rootdata import ir

        out_file = tmp_path / "b2.json"
        rc, _ = run(capsys, ["export-poset", "B2", "--m", "2", "--out", str(out_file)])
        assert rc == 0
        obj = json.loads(out_file.read_text())
        assert obj["num_elements"] == sum(rank_census(ir("B2"), 2))


class TestVerifySuites:
    def test_carlitz_suite(self, capsys, tmp_path):
        rc, out = run(capsys, ["verify", "--suite", "carlitz", "--cache-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify_carlitz.json").read_text())
        schema = json.loads((SCHEMA_DIR / "verify_report.schema.json").read_text())
        jsonschema.validate(report, schema)
        assert report["ok"]

    def test_carlitz_line_is_pinned(self, capsys, tmp_path):
        rc, out = run(capsys, ["verify", "--suite", "carlitz", "--seed", "3", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert out.splitlines()[0] == "carlitz random: 200 passed, 0 skipped; named: 528 passed, 0 skipped"

    @pytest.mark.parametrize("types", [None, "A2"])
    @pytest.mark.parametrize("suite", ["recurrence", "fm", "dual"])
    def test_the_records_are_the_rows(self, capsys, tmp_path, suite, types):
        from catwb.rootdata import ir

        rows = [(mode, str(ir(s)), m) for mode, s, m in SUITES[suite][0]]
        if types:  # the canonical filter keeps the I2(3) rows, which read as A2
            assert any(s == "I2(3)" for _, s, _ in SUITES[suite][0])
            rows = [row for row in rows if row[1] == types]
        argv = ["verify", "--suite", suite, "--cache-dir", str(tmp_path)] + (["--types", types] if types else [])
        assert main(argv) in (0, 1)
        capsys.readouterr()
        report = json.loads((tmp_path / f"verify_{suite}.json").read_text())
        assert [(c["mode"], c["type"], c["m"]) for c in report["checks"]] == rows

    def test_every_suite_is_a_choice(self):
        for name in SUITES:
            assert build_parser().parse_args(["verify", "--suite", name]).suite == name

    def test_the_open_d4_report_honours_the_filters(self, capsys, monkeypatch, tmp_path):
        # D4 at m = 2 is over this poset cap, so a D4 case the filters drop must not run
        monkeypatch.chdir(tmp_path)
        rc, out = run(capsys, ["verify", "--suite", "fm", "--types", "A2", "--m-grid", "1", "--poset-cap", "1000"])
        assert rc == 0
        assert (tmp_path / "verify_fm.json").exists()
        assert "fm-dn-general" not in out

    def test_the_open_d4_report_reuses_the_gated_rows(self, capsys, monkeypatch, tmp_path):
        # fm-dn-general D4 at m = 2, 3 is the comparison of the gated rows
        # fm D4 brute m=2 and m=3, so each M-triangle is swept once
        from catwb.ncposet import NCmPoset

        swept = Counter()
        m_triangle = NCmPoset.m_triangle

        def counted(self):
            swept[str(self.type), self.m] += 1
            return m_triangle(self)

        monkeypatch.setattr(NCmPoset, "m_triangle", counted)
        rc, out = run(capsys, ["verify", "--suite", "fm", "--types", "D4", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert swept == {("D4", 1): 1, ("D4", 2): 1, ("D4", 3): 1}
        lines = out.splitlines()
        for m in (2, 3):
            note = "(empirical: open case, outcome reported not asserted)"
            assert f"[PASS] fm-dn-general D4 brute m={m}  {note}" in lines
            assert f"[PASS] fm D4 brute m={m}" in lines

    def test_chains_command(self, capsys):
        rc, out = run(capsys, ["chains", "A2", "--m", "1", "--jumps", "1,1"])
        assert rc == 0
        assert "formula=3 brute=3" in out

    def test_dual_command(self, capsys):
        rc, out = run(capsys, ["dual", "A3"])
        assert rc == 0
        assert "[PASS]" in out


class TestRunConfig:
    def test_validation(self):
        from catwb.cli import RunConfig

        with pytest.raises(ValueError):
            RunConfig(group_cap=0)
        with pytest.raises(ValueError):
            RunConfig(format="xml")
        cfg = RunConfig()
        assert cfg.group_cap == 100_000
        assert cfg.poset_cap == 2_000_000
        assert cfg.m_grid == (1, 2, 3)

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CATWB_FORMAT", "csv")
        rc, out = run(capsys, ["ftriangle", "A1"])
        assert rc == 0
        assert out.splitlines()[0] == "k,l,coeff"


def run_module(*args):
    """Run `python -m <args>` in a fresh interpreter that imports catwb from src/."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_subprocess_smoke():
    proc = run_module("catwb.cli", "ftriangle", "A2")
    assert proc.returncode == 0
    assert "3 m x" in proc.stdout


def test_python_dash_m_catwb():
    proc = run_module("catwb", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
