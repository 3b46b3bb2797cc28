"""FCY011: interprocedural determinism taint + seed provenance."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint.callgraph import build_callgraph
from repro.lint.suppress import parse_suppressions
from repro.lint.taint import run_taint


def run(tmp_path: Path, files: dict[str, tuple[str, str | None]]):
    """``files``: rel filename -> (source, package-relative path or None).

    Returns the TaintResult over the built call graph.
    """
    paths, rel_paths, suppressions = [], {}, {}
    for name, (source, rel) in files.items():
        source = textwrap.dedent(source)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        key = str(path)
        paths.append(path)
        rel_paths[key] = rel
        suppressions[key] = parse_suppressions(source)
    parsed = [(str(p), ast.parse(p.read_text(encoding="utf-8")))
              for p in sorted(paths)]
    graph = build_callgraph(parsed)
    return run_taint(graph, rel_paths, suppressions)


HELPER_CLOCK = """
    import time

    def run_sweep():
        return time.time()
"""


class TestPropagation:
    def test_boundary_call_site_flagged(self, tmp_path):
        result = run(tmp_path, {
            "helper.py": (HELPER_CLOCK, "runtime/executor.py"),
            "fig.py": (
                "from helper import run_sweep\ndef main():\n    return run_sweep()\n",
                "experiments/fig.py",
            ),
        })
        assert len(result.diagnostics) == 1
        diag = result.diagnostics[0]
        assert diag.code == "FCY011"
        assert "run_sweep" in diag.message
        assert "wall-clock" in diag.message
        assert diag.path.endswith("fig.py")

    def test_chain_witness_in_message(self, tmp_path):
        result = run(tmp_path, {
            "deep.py": (HELPER_CLOCK, "runtime/executor.py"),
            "mid.py": (
                "from deep import run_sweep\ndef relay():\n    return run_sweep()\n",
                "runtime/relay.py",
            ),
            "fig.py": (
                "from mid import relay\ndef main():\n    return relay()\n",
                "experiments/fig.py",
            ),
        })
        assert len(result.diagnostics) == 1
        # the witness chain names every hop down to the primitive's owner
        assert "relay" in result.diagnostics[0].message
        assert "run_sweep" in result.diagnostics[0].message

    def test_out_of_scope_caller_not_flagged(self, tmp_path):
        result = run(tmp_path, {
            "helper.py": (HELPER_CLOCK, "runtime/executor.py"),
            "tool.py": (
                "from helper import run_sweep\ndef main():\n    return run_sweep()\n",
                "runtime/tool.py",  # not simulation scope
            ),
        })
        assert result.diagnostics == []

    def test_in_scope_callee_not_reported_at_boundary(self, tmp_path):
        # A tainted callee inside sim scope is the shallow rules' business
        # (FCY001/FCY002 fire in its own file); no boundary duplicate.
        result = run(tmp_path, {
            "helper.py": (HELPER_CLOCK, "core/helper.py"),
            "fig.py": (
                "from helper import run_sweep\ndef main():\n    return run_sweep()\n",
                "experiments/fig.py",
            ),
        })
        assert result.diagnostics == []

    def test_global_rng_is_a_source(self, tmp_path):
        result = run(tmp_path, {
            "helper.py": (
                "import random\ndef draw():\n    return random.random()\n",
                "runtime/h.py",
            ),
            "fig.py": (
                "from helper import draw\ndef main():\n    return draw()\n",
                "experiments/fig.py",
            ),
        })
        assert len(result.diagnostics) == 1
        assert "global RNG" in result.diagnostics[0].message

    def test_seeded_generator_not_a_source(self, tmp_path):
        result = run(tmp_path, {
            "helper.py": (
                "import numpy as np\ndef make(seed_value):\n"
                "    return np.random.default_rng(seed_value)\n",
                "runtime/h.py",
            ),
            "fig.py": (
                "from helper import make\ndef main():\n    return make(7)\n",
                "experiments/fig.py",
            ),
        })
        assert result.diagnostics == []

    def test_tainted_map_exposes_chain(self, tmp_path):
        result = run(tmp_path, {
            "helper.py": (HELPER_CLOCK, "runtime/executor.py"),
            "fig.py": (
                "from helper import run_sweep\ndef main():\n    return run_sweep()\n",
                "experiments/fig.py",
            ),
        })
        assert "helper.run_sweep" in result.tainted
        assert "fig.main" in result.tainted
        desc, chain = result.tainted["fig.main"]
        assert chain[0] == "fig.main" and chain[-1] == "helper.run_sweep"


class TestBarriers:
    def test_barrier_stops_taint_and_is_used(self, tmp_path):
        result = run(tmp_path, {
            "helper.py": (
                "import time\n\ndef run_sweep():\n"
                "    return time.time()  # fancylint: disable=FCY011 -- log stamp\n",
                "runtime/executor.py",
            ),
            "fig.py": (
                "from helper import run_sweep\ndef main():\n    return run_sweep()\n",
                "experiments/fig.py",
            ),
        })
        assert result.diagnostics == []
        assert len(result.used_barriers) == 1
        (path, line), = result.used_barriers
        assert path.endswith("helper.py") and line == 4

    def test_barrier_on_wrong_line_does_not_stop_taint(self, tmp_path):
        result = run(tmp_path, {
            "helper.py": (
                "import time  # fancylint: disable=FCY011 -- misplaced\n"
                "def run_sweep():\n    return time.time()\n",
                "runtime/executor.py",
            ),
            "fig.py": (
                "from helper import run_sweep\ndef main():\n    return run_sweep()\n",
                "experiments/fig.py",
            ),
        })
        assert len(result.diagnostics) == 1
        assert result.used_barriers == set()


SINK = """
    def plan_shards(links, seed):
        return sorted(links), seed
"""


class TestSeedProvenance:
    def sink_files(self, caller_src: str) -> dict[str, tuple[str, str | None]]:
        return {
            "shard.py": (SINK, "fabric/sharding.py"),
            "drive.py": (textwrap.dedent(caller_src), "experiments/drive.py"),
        }

    def test_forwarded_name_ok(self, tmp_path):
        result = run(tmp_path, self.sink_files("""
            from shard import plan_shards
            def go(links, base_seed):
                return plan_shards(links, seed=base_seed)
        """))
        assert result.diagnostics == []

    def test_arithmetic_flagged(self, tmp_path):
        result = run(tmp_path, self.sink_files("""
            from shard import plan_shards
            def go(links, base_seed, i):
                return plan_shards(links, seed=base_seed + i)
        """))
        assert len(result.diagnostics) == 1
        assert "arithmetic" in result.diagnostics[0].message

    def test_hash_flagged(self, tmp_path):
        result = run(tmp_path, self.sink_files("""
            from shard import plan_shards
            def go(links, name):
                return plan_shards(links, seed=hash(name))
        """))
        assert len(result.diagnostics) == 1
        assert "hash()" in result.diagnostics[0].message

    def test_stable_seed_ok(self, tmp_path):
        result = run(tmp_path, self.sink_files("""
            from shard import plan_shards
            from repro.runtime import stable_seed
            def go(links, base, link_id):
                return plan_shards(links, seed=stable_seed(base, link_id))
        """))
        assert result.diagnostics == []

    def test_positional_seed_checked_too(self, tmp_path):
        result = run(tmp_path, self.sink_files("""
            from shard import plan_shards
            def go(links, base_seed):
                return plan_shards(links, base_seed * 3)
        """))
        assert len(result.diagnostics) == 1

    def test_coercion_wrapper_ok(self, tmp_path):
        result = run(tmp_path, self.sink_files("""
            from shard import plan_shards
            def go(links, base_seed):
                return plan_shards(links, seed=int(base_seed))
        """))
        assert result.diagnostics == []

    def test_local_assignment_traced(self, tmp_path):
        result = run(tmp_path, self.sink_files("""
            from shard import plan_shards
            def go(links, base_seed, i):
                derived = base_seed ^ i
                return plan_shards(links, seed=derived)
        """))
        assert len(result.diagnostics) == 1

    def test_non_sink_file_not_checked(self, tmp_path):
        result = run(tmp_path, {
            "shard.py": (SINK, "traffic/gen.py"),  # not a seed sink
            "drive.py": (textwrap.dedent("""
                from shard import plan_shards
                def go(links, base_seed, i):
                    return plan_shards(links, seed=base_seed + i)
            """), "experiments/drive.py"),
        })
        assert result.diagnostics == []
