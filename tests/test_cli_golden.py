"""Golden digests of the command-line interface.

Each invocation runs ``repro.cli.main`` in-process on the tiny built-in
models and hashes its exit code and normalized stdout, once with
``--json`` and once as text where the command has both; three error
paths are pinned by exit code and stderr line.  Wall-clock values are
stripped by the explicit lists below, and the scratch directory is
written as ``<tmp>``.  The parser surface (every subcommand's options,
defaults and types) is pinned as a readable literal.  Together they
let the CLI be restructured without moving what any command prints.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import tempfile

import pytest

from repro.cli import build_parser, main

GOLDEN = {
    'models:text': '20dc83b5593fbce8409f2732290d6ba8941d8504d5f939798469b35ad4c1a9d0',
    'devices:text': '1dafac5980ecbbe76fdeba4c2f0cc92446c59079fe9e72b27381e11a8e7881d0',
    'winograd:text': 'b901d17636f716a71f6e2f9b25b6cd4766b5c4606423905f2e606e87051518d0',
    'compile_chain:text': 'e8646a9408f9085b822d3081efba2ac0d74af82fee845a5bbfc12a3618e35e05',
    'compile_chain:json': '7e4096b0863cd960b3aea3bd14615f8e467a426c18ad83698a6e439bb3f3a386',
    'compile_graph:text': '8006ff72a6b7a18b60e76f9826ef12217e353df7e8789a2e0a0fc1237e510faf',
    'compile_graph:json': 'ec41a3fffadf1fde18e3bccf267054483080684d932a5d64b2fb5d45fef19cf2',
    'compile_cached:text': 'a9f85d0c7b596891250a168db3616f52495147478a6fa36dd0fa4cd435ea0659',
    'compile_cached:json': 'd07f3505d36597d47a37ff98b98ba55b8f67ae9ee12c90c00191e2ca3a14a23e',
    'sweep_baseline:text': '399ef87e44e8bad17143747bf3539de38867bbdd024d0f6d8c7b274ce1879284',
    'sweep_baseline:json': '890d5fb6b4dbc9e9e7033caa307f812f643ee38c73a29dc714328740a893c7e8',
    'partition:text': '6063bc665de31d91bf8988451f986143224ceec3ef5312177b6c55b780f9cac5',
    'partition:json': '18b8b96921fdcbbd8e3c3a051fc7686bc736cb328fd74feb7c07e27984d65b73',
    'replan:text': '6d11e36eba763eada08e6df0cbe5e6e6e114f084c10851ebf658ace445935b77',
    'replan:json': '9aa2b4e781b57259b33cb9b902ff1e02eef6305585b6d2ef0e9b38328ebe564a',
    'serve_single:text': 'c75ae66798a1d99450706cc9054c2ea18c8b11ed3f86de952cd03bfd63e7236a',
    'serve_single:json': '6edf063037754df59dc2d616961db3e0056f632ac0336cef8d81cdcb31e7378c',
    'serve_multi:text': 'ec599a69dab61d2406366948dc8c3dd99cea39ee5a1790c5cad5e1ed569727cd',
    'serve_multi:json': 'd4957a64ef35a5249b01f4d8e946a7f5b62601630b8fd812f76235c3a74d5a17',
    'plan_capacity_baseline:text': '2b6c2a50eff351f4060ebbde49509e42b904b927ce66972eecd725cb5a39ffde',
    'plan_capacity_baseline:json': '919d8820502e4e2684b045cc48bcd4467b45f71d2b3377e326a298f4f2cfd1ce',
    'plan_capacity_faults:text': '77a59fb369af7aa142c2a0dc69a6271222093379fa13e4bd06f7163e2c1f4c5e',
    'plan_capacity_faults:json': 'c492a93f9d8e50c53019bb1ef5d6ee961cc2403659d437599ebc3ce0371b466c',
    'sweep_grid:text': 'afeba2f29c7b27620197871d561a092e99810201271f37ed9fb22e44a8f5d023',
    'sweep_grid:json': 'c8e16f482812242f4bff9a4515e09a4e3a45493e555a8ccc445874e71e9f707f',
    'cache_stats:text': '8e36671c3984e5bfe2204130efd44d848a2ab1ef8f22ae12f96a9c1243500c6a',
    'cache_stats:json': '15db633e3efe4ff0df80e596728386d1803bd61b0ab14903fb61529165e5364f',
    'check:text': 'ea2ed7aad271911cfd6ef51f020d42f0bbb906342a34ce43a0c7257072acff2d',
    'unknown_model:error': "1 '' error: 'no_such_model' is neither a model-zoo name (alexnet, googlenet, googlenet_prefix2, nin, tiny_cnn, vgg16, vgg19, vgg19_prefix7, vgg_e, zfnet, googlenet_graph, googlenet_graph_prefix2, tiny_branch, tiny_resnet) nor an existing prototxt file",
    'bad_fault_spec:error': "1 '' error: unknown fault kind 'warp' (known kinds: crash, transient, brownout, link)",
    'grid_without_axes:error': "1 '' error: either --spec FILE or both --models and --devices are required",
}

# JSON keys whose values are wall-clock readings, dropped at any depth
# (a cost store's size too: its log records carry write timestamps).
WALL_CLOCK_KEYS = ("wall_time_s", "replan_wall_seconds", "elapsed_s", "bytes")

# Text-mode lines or fragments that carry wall-clock readings.
WALL_CLOCK_TEXT = (
    (re.compile(r"^\s*search wall time:.*$", re.M), "<wall>"),
    (re.compile(r"^\s*slowest groups \(top \d+\):$", re.M), "<wall>"),
    (re.compile(r"^\s+\S+\[\d+:\d+\] on \S+: \d+\.\d+ s$", re.M), "<wall>"),
    (re.compile(r"in \d+\.\d+ ms wall clock"), "in <wall> ms wall clock"),
    (re.compile(r"\(\d+\.\d+s\)"), "(<wall>s)"),
    (re.compile(r"^  size on disk: .*$", re.M), "<wall>"),
)

TENANTS = [
    "--tenant",
    "name=vision;model=tiny_cnn;arrival=poisson:mean=40000;"
    "slo-ms=2;requests=30",
    "--tenant",
    "name=detect;model=tiny_cnn;arrival=mmpp:mean=60000,burst=5;"
    "slo-ms=4;requests=20",
]
CAPACITY = ["plan-capacity"] + TENANTS + [
    "--devices", "testchip", "--max-replicas", "2", "--batch-sizes", "1,4",
]
SERVE = ["serve-sim", "tiny_cnn", "--device", "testchip", "--requests", "60"]

# name -> (argv, has a text mode, has a --json mode); "<tmp>" is the
# scratch directory.  Order matters: "cache_stats" reads the store the
# "compile_cached" run wrote, and "check" reads the "partition" plan.
INVOCATIONS = {
    "models": (["models"], True, False),
    "devices": (["devices"], True, False),
    "winograd": (["winograd", "2", "3"], True, False),
    "compile_chain": (
        ["compile", "tiny_cnn", "--device", "testchip", "--stats",
         "--simulate"],
        True, True,
    ),
    "compile_graph": (
        ["compile", "tiny_resnet", "--device", "testchip", "--stats",
         "--simulate"],
        True, True,
    ),
    "compile_cached": (
        ["compile", "tiny_cnn", "--device", "testchip", "--transfer", "16KB",
         "--cache", "<tmp>/store"],
        True, True,
    ),
    "sweep_baseline": (
        ["sweep", "tiny_cnn", "--device", "testchip", "--constraints",
         "16KB,1MB", "--baseline", "--stats"],
        True, True,
    ),
    "partition": (
        ["partition", "tiny_cnn", "--devices", "testchip,testchip",
         "--simulate", "--serve", "40", "--pipelines", "2", "--faults",
         "transient:p=0.2", "--seed", "3", "--stats",
         "--save", "<tmp>/plan.json"],
        True, True,
    ),
    "replan": (
        ["replan", "tiny_cnn", "--devices", "testchip,testchip,testchip",
         "--dead-stage", "1", "--save", "<tmp>/survivor.json"],
        True, True,
    ),
    "serve_single": (
        SERVE + ["--replicas", "2", "--resilience", "--fallback", "--faults",
                 "transient:p=0.2;crash:replica=1,at=2e4,down=1e4",
                 "--seed", "5", "--slo", "20000",
                 "--recovery-log", "<tmp>/recovery.json"],
        True, True,
    ),
    "serve_multi": (
        SERVE + ["--models", "tiny_resnet", "--arrival",
                 "poisson:mean=30000|constant:mean=50000", "--weights", "2,1",
                 "--replicas", "2", "--resilience", "--faults",
                 "transient:p=0.1", "--seed", "4",
                 "--recovery-log", "<tmp>/recovery_multi.json"],
        True, True,
    ),
    "plan_capacity_baseline": (
        CAPACITY + ["--seed", "7", "--baseline",
                    "--save", "<tmp>/capacity.json"],
        True, True,
    ),
    "plan_capacity_faults": (
        CAPACITY + ["--seed", "3", "--faults", "transient:p=0.1"],
        True, True,
    ),
    "sweep_grid": (
        ["sweep-grid", "--models", "tiny_cnn", "--devices", "testchip",
         "--transfers", "16KB,none", "--no-cache", "--out", "<tmp>/grid"],
        True, True,
    ),
    "cache_stats": (["cache", "stats", "--dir", "<tmp>/store"], True, True),
    "check": (["check", "<tmp>/plan.json", "<tmp>/capacity.json"],
              True, False),
}

# name -> argv of a command that fails; pinned by exit code and stderr.
ERRORS = {
    "unknown_model": ["compile", "no_such_model", "--device", "testchip"],
    "bad_fault_spec": SERVE + ["--faults", "warp:p=1"],
    "grid_without_axes": ["sweep-grid", "--out", "<tmp>/bad_grid"],
}

PARSER_SURFACE = {
    'cache': {
        'action': {'flags': '', 'choices': ['stats', 'gc', 'clear'], 'required': True},
        'dir': {'flags': '--dir'},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'max_age_days': {'flags': '--max-age-days', 'type': 'float'},
        'max_entries': {'flags': '--max-entries', 'type': 'int'},
    },
    'check': {
        'artifacts': {'flags': '', 'nargs': '+', 'required': True},
        'model': {'flags': '--model'},
    },
    'compile': {
        'cache': {'flags': '--cache', 'const': '', 'nargs': '?'},
        'device': {'flags': '--device', 'default': 'zc706', 'choices': ['testchip', 'vc707', 'vc709', 'zc706', 'zcu102']},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'model': {'flags': '', 'required': True},
        'no_verify': {'flags': '--no-verify', 'default': False, 'const': True, 'nargs': 0},
        'out': {'flags': '--out'},
        'simulate': {'flags': '--simulate', 'default': False, 'const': True, 'nargs': 0},
        'stats': {'flags': '--stats', 'default': False, 'const': True, 'nargs': 0},
        'transfer': {'flags': '--transfer', 'type': '_parse_size'},
    },
    'devices': {
    },
    'doctor': {
        'deep': {'flags': '--deep', 'default': False, 'const': True, 'nargs': 0},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
    },
    'models': {
    },
    'partition': {
        'cache': {'flags': '--cache', 'const': '', 'nargs': '?'},
        'devices': {'flags': '--devices', 'default': 'zc706,zc706'},
        'faults': {'flags': '--faults'},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'link_gbs': {'flags': '--link-gbs', 'default': 2.0, 'type': 'float'},
        'link_latency_us': {'flags': '--link-latency-us', 'default': 0.0, 'type': 'float'},
        'load': {'flags': '--load', 'default': 1.5, 'type': 'float'},
        'model': {'flags': '', 'required': True},
        'no_verify': {'flags': '--no-verify', 'default': False, 'const': True, 'nargs': 0},
        'pipelines': {'flags': '--pipelines', 'default': 1, 'type': 'int'},
        'save': {'flags': '--save'},
        'seed': {'flags': '--seed', 'default': 0, 'type': 'int'},
        'serve': {'flags': '--serve', 'type': 'int'},
        'simulate': {'flags': '--simulate', 'default': False, 'const': True, 'nargs': 0},
        'stats': {'flags': '--stats', 'default': False, 'const': True, 'nargs': 0},
        'transfer': {'flags': '--transfer', 'type': '_parse_size'},
    },
    'plan-capacity': {
        'baseline': {'flags': '--baseline', 'default': False, 'const': True, 'nargs': 0},
        'batch_sizes': {'flags': '--batch-sizes', 'default': '1,4,8'},
        'cache': {'flags': '--cache', 'const': '', 'nargs': '?'},
        'devices': {'flags': '--devices', 'default': 'zc706'},
        'faults': {'flags': '--faults'},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'max_replicas': {'flags': '--max-replicas', 'default': 4, 'type': 'int'},
        'no_verify': {'flags': '--no-verify', 'default': False, 'const': True, 'nargs': 0},
        'policy': {'flags': '--policy', 'default': 'least_loaded', 'choices': ['round_robin', 'least_loaded']},
        'save': {'flags': '--save'},
        'seed': {'flags': '--seed', 'default': 0, 'type': 'int'},
        'sharing': {'flags': '--sharing', 'default': 'weighted_fair', 'choices': ['weighted_fair', 'strict_priority']},
        'tenant': {'flags': '--tenant', 'required': True},
        'transfer': {'flags': '--transfer', 'type': '_parse_size'},
    },
    'replan': {
        'cache': {'flags': '--cache', 'const': '', 'nargs': '?'},
        'dead_stage': {'flags': '--dead-stage', 'default': 0, 'type': 'int'},
        'devices': {'flags': '--devices', 'default': 'zc706,zc706'},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'link_gbs': {'flags': '--link-gbs', 'default': 2.0, 'type': 'float'},
        'link_latency_us': {'flags': '--link-latency-us', 'default': 0.0, 'type': 'float'},
        'model': {'flags': '', 'required': True},
        'no_verify': {'flags': '--no-verify', 'default': False, 'const': True, 'nargs': 0},
        'save': {'flags': '--save'},
        'transfer': {'flags': '--transfer', 'type': '_parse_size'},
    },
    'serve-sim': {
        'arrival': {'flags': '--arrival'},
        'device': {'flags': '--device', 'default': 'zc706', 'choices': ['testchip', 'vc707', 'vc709', 'zc706', 'zcu102']},
        'fallback': {'flags': '--fallback', 'default': False, 'const': True, 'nargs': 0},
        'faults': {'flags': '--faults'},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'load': {'flags': '--load', 'default': 1.5, 'type': 'float'},
        'max_batch': {'flags': '--max-batch', 'default': 8, 'type': 'int'},
        'max_queue': {'flags': '--max-queue', 'type': 'int'},
        'max_wait': {'flags': '--max-wait', 'type': 'float'},
        'model': {'flags': '', 'required': True},
        'models': {'flags': '--models'},
        'no_verify': {'flags': '--no-verify', 'default': False, 'const': True, 'nargs': 0},
        'policy': {'flags': '--policy', 'default': 'least_loaded', 'choices': ['round_robin', 'least_loaded']},
        'recovery_log': {'flags': '--recovery-log'},
        'replicas': {'flags': '--replicas', 'default': 1, 'type': 'int'},
        'requests': {'flags': '--requests', 'default': 200, 'type': 'int'},
        'resilience': {'flags': '--resilience', 'default': False, 'const': True, 'nargs': 0},
        'seed': {'flags': '--seed', 'default': 0, 'type': 'int'},
        'sharing': {'flags': '--sharing', 'default': 'weighted_fair', 'choices': ['weighted_fair', 'strict_priority']},
        'slo': {'flags': '--slo', 'type': 'float'},
        'trace': {'flags': '--trace'},
        'transfer': {'flags': '--transfer', 'type': '_parse_size'},
        'weights': {'flags': '--weights'},
    },
    'sweep': {
        'baseline': {'flags': '--baseline', 'default': False, 'const': True, 'nargs': 0},
        'cache': {'flags': '--cache', 'const': '', 'nargs': '?'},
        'constraints': {'flags': '--constraints', 'default': '2MB,4MB,8MB,16MB,32MB'},
        'device': {'flags': '--device', 'default': 'zc706', 'choices': ['testchip', 'vc707', 'vc709', 'zc706', 'zcu102']},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'model': {'flags': '', 'required': True},
        'stats': {'flags': '--stats', 'default': False, 'const': True, 'nargs': 0},
    },
    'sweep-grid': {
        'bw_factors': {'flags': '--bw-factors', 'default': '1.0'},
        'cache': {'flags': '--cache'},
        'devices': {'flags': '--devices'},
        'fault_seed': {'flags': '--fault-seed', 'default': 0, 'type': 'int'},
        'faults': {'flags': '--faults'},
        'fleet_sizes': {'flags': '--fleet-sizes', 'default': '1'},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'max_retries': {'flags': '--max-retries', 'default': 2, 'type': 'int'},
        'models': {'flags': '--models'},
        'no_cache': {'flags': '--no-cache', 'default': False, 'const': True, 'nargs': 0},
        'out': {'flags': '--out', 'required': True},
        'point_timeout': {'flags': '--point-timeout', 'type': 'float'},
        'resume': {'flags': '--resume', 'default': False, 'const': True, 'nargs': 0},
        'spec': {'flags': '--spec'},
        'transfers': {'flags': '--transfers', 'default': 'none'},
        'workers': {'flags': '--workers', 'type': 'int'},
    },
    'torture': {
        'chaos': {'flags': '--chaos', 'default': False, 'const': True, 'nargs': 0},
        'eio_p': {'flags': '--eio-p', 'default': 0.05, 'type': 'float'},
        'json': {'flags': '--json', 'default': False, 'const': True, 'nargs': 0},
        'kill_p': {'flags': '--kill-p', 'default': 0.2, 'type': 'float'},
        'max_retries': {'flags': '--max-retries', 'default': 5, 'type': 'int'},
        'report': {'flags': '--report'},
        'seed': {'flags': '--seed', 'default': 7, 'type': 'int'},
        'workdir': {'flags': '--workdir'},
        'workers': {'flags': '--workers', 'default': 2, 'type': 'int'},
        'workloads': {'flags': '--workloads'},
    },
    'winograd': {
        'm': {'flags': '', 'type': 'int', 'required': True},
        'r': {'flags': '', 'type': 'int', 'required': True},
    },
}


def _strip(value):
    if isinstance(value, dict):
        return {
            key: _strip(item)
            for key, item in value.items()
            if key not in WALL_CLOCK_KEYS
        }
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def _run(argv, tmp: str):
    argv = [arg.replace("<tmp>", tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (
        code,
        out.getvalue().replace(tmp, "<tmp>"),
        err.getvalue().replace(tmp, "<tmp>"),
    )


def _digest(code: int, stdout: str, json_mode: bool) -> str:
    if json_mode:
        text = json.dumps(_strip(json.loads(stdout)), sort_keys=True)
    else:
        text = stdout
        for pattern, replacement in WALL_CLOCK_TEXT:
            text = pattern.sub(replacement, text)
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def compute_golden() -> dict:
    """Digest of every pinned invocation, keyed ``name:mode``."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, text_mode, json_mode) in INVOCATIONS.items():
            modes = [("text", argv)] if text_mode else []
            if json_mode:
                modes.append(("json", argv + ["--json"]))
            for mode, full in modes:
                code, stdout, _ = _run(full, tmp)
                digests[f"{name}:{mode}"] = _digest(code, stdout, mode == "json")
        for name, argv in ERRORS.items():
            code, stdout, stderr = _run(argv, tmp)
            digests[f"{name}:error"] = (
                f"{code} {stdout!r} {stderr.strip().splitlines()[-1]}"
            )
    return digests


def parser_surface() -> dict:
    """Each subcommand's settable values: dest -> its option strings
    (``flags``) plus each of default, const, nargs, type, choices and
    required that is set."""
    parser = build_parser()
    (sub,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {}
    for command, subparser in sorted(sub.choices.items()):
        entries = {}
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            fields = {
                "flags": " ".join(action.option_strings),
                "default": action.default,
                "const": action.const,
                "nargs": action.nargs,
                "type": getattr(action.type, "__name__", None),
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "required": action.required or None,
            }
            entries[action.dest] = {
                key: value for key, value in fields.items() if value is not None
            }
        surface[command] = dict(sorted(entries.items()))
    return surface


@pytest.fixture(scope="module")
def digests():
    return compute_golden()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_is_pinned(digests, key):
    assert digests[key] == GOLDEN[key], key


def test_every_invocation_is_pinned(digests):
    assert set(digests) == set(GOLDEN)


def test_parser_surface_is_pinned():
    assert parser_surface() == PARSER_SURFACE


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, value in compute_golden().items():
        print(f"    {key!r}: {value!r},")
    print("}")
    print()
    print("PARSER_SURFACE = {")
    for command, entries in parser_surface().items():
        print(f"    {command!r}: {{")
        for dest, fields in entries.items():
            print(f"        {dest!r}: {fields!r},")
        print("    },")
    print("}")
