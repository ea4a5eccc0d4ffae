import argparse
import json

import pytest

from subreg import classify as cls, cli, grammar as gr
from subreg.classify import Family


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(gr.fixtures()["ex1"].to_json()))
    return str(path)


class TestClassify:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "classify", "(ab)*", "--alphabet", "ab")
        assert code == 0
        assert "STAR   yes" in out
        assert "CIRC   no" in out

    def test_json_output_is_sorted_and_stable(self, capsys):
        code, out1, _ = run(capsys, "classify", "(ab)*", "--alphabet", "ab",
                            "--format", "json")
        assert code == 0
        code, out2, _ = run(capsys, "classify", "(ab)*", "--alphabet", "ab",
                            "--format", "json")
        assert out1 == out2
        data = json.loads(out1)
        assert list(data) == sorted(data)
        assert len(data["verdicts"]) == 18

    def test_regex_from_file(self, capsys, tmp_path):
        p = tmp_path / "r.txt"
        p.write_text("(ab)*\n")
        code, out, _ = run(capsys, "classify", str(p), "--alphabet", "ab")
        assert code == 0

    def test_regex_file_not_utf8_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "r.txt"
        p.write_bytes(b"\xff")
        code, out, err = run(capsys, "classify", str(p), "--alphabet", "ab")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read regex file")
        assert err.count("\n") == 1

    def test_bad_regex_is_input_error(self, capsys):
        code, _, err = run(capsys, "classify", "(ab", "--alphabet", "ab")
        assert code == 2
        assert "error" in err

    def test_unknown_letter_is_input_error(self, capsys):
        code, _, _ = run(capsys, "classify", "abc", "--alphabet", "ab")
        assert code == 2

    def test_bad_alphabet_is_input_error(self, capsys):
        code, out, err = run(capsys, "classify", "a", "--alphabet", "a0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_empty_alphabet_is_input_error(self, capsys):
        code, out, err = run(capsys, "classify", "a", "--alphabet=")
        assert (code, out, err) == (2, "", "error: --alphabet is required\n")

    @pytest.mark.parametrize("text, alphabet", [
        ("(" * 3000 + "a" + ")" * 3000, "ab"), ("a*" * 2000, "ab"),
        ("a" * 600, "ab"), ("ab", "ab" + "".join(map(chr, range(256, 556))))],
        ids=["deep_parentheses", "long_star_chain", "long_word",
             "large_alphabet"])
    def test_deep_input_is_classified(self, capsys, text, alphabet):
        # each tree, or the ORD search over 302 letters, is deeper than the
        # interpreter's recursion limit
        code, out, err = run(capsys, "classify", text, "--alphabet", alphabet,
                             "--format", "json")
        assert code == 0 and err == ""
        assert len(json.loads(out)["verdicts"]) == 18

    def test_consistency_error_is_verification_failure(self, capsys,
                                                        monkeypatch):
        # NC = no beside ORD = yes breaks the ORD => NC implication
        monkeypatch.setitem(cls._DECIDERS, Family.NC,
                            lambda analysis: cls._no(Family.NC))
        code, out, err = run(capsys, "classify", "(ab)*", "--alphabet", "ab")
        assert code == 1 and out == ""
        assert err == "error: ORD = yes but NC = no for (ab)*\n"

    def test_certificate_error_is_verification_failure(self, capsys,
                                                        monkeypatch):
        # the COMB decider checks its candidate certificate
        def reject(*args):
            raise cls.CertificateError("cannot check certificate")
        monkeypatch.setattr(cls, "verify_certificate", reject)
        code, out, err = run(capsys, "classify", "(ab)*", "--alphabet", "ab")
        assert code == 1 and out == ""
        assert err == "error: cannot check certificate\n"


class TestNf2com:
    def test_left_normal_form(self, capsys):
        code, out, _ = run(capsys, "nf2com", "a|b", "ab", "b",
                           "--alphabet", "ab")
        assert code == 0
        assert "single_comet=true" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "nf2com", "a", "ab", "b",
                           "--alphabet", "ab", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True

    @pytest.mark.parametrize("e", ["a(", "c"], ids=["bad_regex",
                                                     "letter_outside"])
    def test_bad_part_is_input_error(self, capsys, e):
        code, out, err = run(capsys, "nf2com", e, "b", "b", "--alphabet", "ab")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_trivial_middle_is_domain_error(self, capsys):
        code, _, err = run(capsys, "nf2com", "a", "1", "b", "--alphabet", "ab")
        assert code == 3
        assert "middle" in err


class TestGrammar:
    def test_validate(self, capsys, ex1_path):
        code, out, _ = run(capsys, "grammar", "validate", ex1_path)
        assert code == 0
        assert "l_A=0 l_C=2 l=3" in out

    def test_enum_prints_epsilon_in_text_mode(self, capsys, ex1_path):
        code, out, _ = run(capsys, "grammar", "enum", ex1_path, "-n", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ε"
        assert "cc" in lines

    def test_enum_json_uses_empty_string(self, capsys, ex1_path):
        code, out, _ = run(capsys, "grammar", "enum", ex1_path, "-n", "2",
                           "--format", "json")
        data = json.loads(out)
        assert "" in data["words"]

    @pytest.mark.parametrize("name, word, answer", [
        ("ex1", "ab" * 1000, "yes"),
        ("nil_o_star", "a" * 2000 + "bb", "no"),
    ], ids=["member", "non_member"])
    def test_member_of_a_long_word(self, capsys, tmp_path, name, word,
                                   answer):
        # one derivation step per letter pair or letter
        path = tmp_path / "g.json"
        path.write_text(json.dumps(gr.fixtures()[name].to_json()))
        code, out, err = run(capsys, "grammar", "member", str(path), word)
        assert (code, out, err) == (0, answer + "\n", "")

    def test_member_epsilon_argument(self, capsys, ex1_path):
        code, out, _ = run(capsys, "grammar", "member", ex1_path, "ε")
        assert code == 0 and out.strip() == "yes"
        code, out, _ = run(capsys, "grammar", "member", ex1_path, "ca")
        assert code == 0 and out.strip() == "no"

    def test_classify_selections(self, capsys, ex1_path):
        code, out, _ = run(capsys, "grammar", "classify", ex1_path)
        assert code == 0
        assert "component 0" in out and "component 1" in out

    def test_transform_rcom(self, capsys, ex1_path):
        code, out, _ = run(capsys, "grammar", "transform", ex1_path, "rcom")
        assert code == 0
        data = json.loads(out)
        assert "X" in data["alphabet"]

    def test_validate_grammar_without_components(self, capsys, tmp_path):
        # elimlambda drops the {λ} selection and leaves no component
        lam = {"alphabet": ["a"], "axioms": [""], "components": [
            {"selection": {"alphabet": ["a"], "regex": "1"},
             "contexts": [{"u": "a", "v": ""}]}]}
        path = tmp_path / "lam.json"
        path.write_text(json.dumps(lam))
        code, out, _ = run(capsys, "grammar", "transform", str(path),
                           "elimlambda")
        assert code == 0
        assert json.loads(out)["components"] == []
        path.write_text(out)
        code, out, err = run(capsys, "grammar", "validate", str(path))
        assert (code, out, err) == (0, "valid; l_A=1 l_C=0 l=2\n", "")

    def test_transform_def2sydef_precondition(self, capsys, tmp_path):
        g = gr.fixtures()["star_o_ps"]  # (aa)* selection is not definite
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_json()))
        code, _, err = run(capsys, "grammar", "transform", str(path),
                           "def2sydef")
        assert code == 3
        assert "definite" in err

    def test_transform_def2sydef_split_too_large(self, capsys, tmp_path):
        # the DEF certificate of a^17 over {a,b} gives its window, 18, but
        # lists no split: 2^18 words of length 18 are too many
        g = {"alphabet": ["a", "b"], "axioms": ["a" * 17], "components": [
            {"selection": {"alphabet": ["a", "b"], "regex": "a" * 17},
             "contexts": [{"u": "b", "v": "b"}]}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g))
        code, out, err = run(capsys, "grammar", "transform", str(path),
                             "def2sydef")
        assert (code, out) == (3, "")
        assert err == ("error: component 0: definite split too large to "
                       "materialize\n")

    @pytest.mark.parametrize("n", ["-1", "-7"])
    def test_negative_length_is_input_error(self, capsys, ex1_path, n):
        code, out, err = run(capsys, "grammar", "enum", ex1_path, "-n", n)
        assert code == 2 and out == ""
        assert err == f"error: -n/--max-length must be at least 0, got {n}\n"

    def test_enum_length_has_no_upper_cap(self, capsys, tmp_path):
        # past the 32 that a language handle enumerates to
        path = tmp_path / "g.json"
        path.write_text(json.dumps(gr.fixtures()["nil_o_star"].to_json()))
        code, out, _ = run(capsys, "grammar", "enum", str(path), "-n", "60",
                           "--format", "json")
        assert code == 0
        assert set(json.loads(out)["words"]) == gr.fixture_words(
            "nil_o_star", 60)

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "grammar", "validate", "/nonexistent.json")
        assert code == 2

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, "grammar", "validate", str(p))
        assert code == 2

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"alphabet": ' + "1" * 5000 + "}"],
                             ids=["deep_nesting", "long_integer"])
    def test_undecodable_json_is_input_error(self, capsys, tmp_path, text):
        # the decoder recurses into nested values and refuses integers of
        # more than 4300 digits
        p = tmp_path / "bad.json"
        p.write_text(text)
        code, out, err = run(capsys, "grammar", "validate", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read grammar")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["validate"], ["enum"], ["member", "a"], ["classify"],
        ["transform", "rcom"]], ids=lambda c: c[0])
    def test_file_not_utf8_is_input_error(self, capsys, tmp_path, command):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff")
        code, out, err = run(capsys, "grammar", command[0], str(p),
                             *command[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read grammar")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("edit", [
        lambda d: d["components"][0].update(certificates={"XYZ": {}}),
        lambda d: d["components"][0]["contexts"][0].update(u=1),
        lambda d: d.update(axioms=[1]),
        # not the two axioms a and b
        lambda d: d.update(axioms="ab"),
        lambda d: d["components"][0].update(certificates=[]),
        # not the regex a*
        lambda d: d["components"][0]["selection"].update(regex=["a", "*"]),
        # neither may read as a grammar without components
        lambda d: d.update(components={}),
        lambda d: d.update(components=""),
    ], ids=["unknown_family", "context_not_text", "axiom_not_text",
            "axioms_not_a_list", "certificates_not_an_object",
            "regex_not_text", "components_not_a_list_object",
            "components_not_a_list_text"])
    def test_malformed_grammar_is_input_error(self, capsys, tmp_path, edit):
        data = gr.fixtures()["ex1"].to_json()
        edit(data)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "grammar", "validate", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

class TestHierarchy:
    def test_query(self, capsys):
        code, out, _ = run(capsys, "hierarchy", "query", "MON", "REG")
        assert code == 0 and out.strip() == "proper-subset"
        code, out, _ = run(capsys, "hierarchy", "query", "NC", "SF")
        assert code == 0 and out.strip() == "equal"
        code, out, _ = run(capsys, "hierarchy", "query",
                           "EC(SYDEF)", "EC(ORD)", "--graph", "fig2")
        assert code == 0 and out.strip() == "incomparable"

    def test_query_unknown_node(self, capsys):
        code, _, _ = run(capsys, "hierarchy", "query", "FOO", "REG")
        assert code == 2

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "hierarchy", "dot", "fig1")
        assert code == 0 and out.startswith("digraph fig1")

    def test_verify_small_corpus(self, capsys):
        code, out, _ = run(capsys, "hierarchy", "verify",
                           "--corpus-size", "40")
        assert code == 0
        assert "0 failed" in out
        assert "0 violations" in out

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_corpus_size_below_one_is_input_error(self, capsys, size):
        code, out, err = run(capsys, "hierarchy", "verify",
                             "--corpus-size", size)
        assert code == 2 and out == ""
        assert err == f"error: --corpus-size must be at least 1, got {size}\n"


def _leaf_options(parser, path=()):
    """(command path, sorted long options) of every leaf command."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), sorted(
            o for a in parser._actions for o in a.option_strings
            if o.startswith("--") and o != "--help")
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_options(sub, (*path, name))


def test_each_command_takes_only_the_options_it_reads():
    assert dict(_leaf_options(cli.build_parser())) == {
        "classify": ["--alphabet", "--format"],
        "nf2com": ["--alphabet", "--format", "--side"],
        "grammar validate": ["--format"],
        "grammar enum": ["--format", "--max-length"],
        "grammar member": ["--format"],
        "grammar classify": ["--format"],
        "grammar transform": [],  # prints JSON
        "hierarchy verify": ["--corpus-size", "--format"],
        "hierarchy query": ["--format", "--graph"],
        "hierarchy dot": [],
    }


class TestParserReuse:
    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        assert run(capsys, "hierarchy", "query", "MON", "REG")[0] == 0
        assert run(capsys, "hierarchy", "query", "NC", "SF")[0] == 0
        assert built.count("subreg") == 1
        assert cli.build_parser() is cli.build_parser()

    def test_rejection_leaves_later_calls_unchanged(self, capsys):
        argv = ["classify", "(ab)*", "--alphabet", "ab", "--format", "json"]
        cli.build_parser.cache_clear()
        first = run(capsys, *argv)
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["classify", "a"])
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith("usage: subreg classify")
            errors.append(out.err)
        assert errors[0] == errors[1]
        assert "--alphabet" in errors[0]
        assert run(capsys, *argv) == first

    @pytest.mark.parametrize("argv", [["--help"], ["grammar", "enum", "--help"]],
                             ids=["top", "grammar_enum"])
    def test_help_is_unchanged(self, capsys, argv):
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        want = capsys.readouterr().out
        assert want.startswith("usage: subreg")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == want
