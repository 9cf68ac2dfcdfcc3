"""Public API surface: imports, exports, docstrings."""

import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import repro

MODULES = [
    "repro",
    "repro.units",
    "repro.sim",
    "repro.sim.events",
    "repro.sim.simulator",
    "repro.sim.timers",
    "repro.sim.rng",
    "repro.net",
    "repro.net.addressing",
    "repro.net.packet",
    "repro.net.link",
    "repro.net.queues",
    "repro.net.node",
    "repro.net.switch",
    "repro.net.capture",
    "repro.net.pcap",
    "repro.rdcn",
    "repro.rdcn.config",
    "repro.rdcn.schedule",
    "repro.rdcn.fabric",
    "repro.rdcn.notifier",
    "repro.rdcn.topology",
    "repro.rdcn.rotor",
    "repro.rdcn.opera",
    "repro.tcp",
    "repro.tcp.config",
    "repro.tcp.ranges",
    "repro.tcp.buffers",
    "repro.tcp.sack" if False else "repro.tcp.options",
    "repro.tcp.rtt",
    "repro.tcp.state",
    "repro.tcp.rack",
    "repro.tcp.connection",
    "repro.tcp.sockets",
    "repro.tcp.cc",
    "repro.tcp.cc.base",
    "repro.tcp.cc.reno",
    "repro.tcp.cc.cubic",
    "repro.tcp.cc.dctcp",
    "repro.core",
    "repro.core.tdtcp",
    "repro.core.tdn_state",
    "repro.core.reordering",
    "repro.core.rtt",
    "repro.mptcp",
    "repro.mptcp.connection",
    "repro.mptcp.subflow",
    "repro.mptcp.scheduler",
    "repro.retcp",
    "repro.retcp.retcp",
    "repro.retcp.dynbuf",
    "repro.apps",
    "repro.apps.bulk",
    "repro.apps.workload",
    "repro.apps.tracegen",
    "repro.apps.incast",
    "repro.obs",
    "repro.obs.tracepoints",
    "repro.obs.metrics",
    "repro.obs.outcome",
    "repro.obs.exporters",
    "repro.obs.profiling",
    "repro.obs.telemetry",
    "repro.experiments",
    "repro.experiments.config",
    "repro.experiments.variants",
    "repro.experiments.runner",
    "repro.experiments.executor",
    "repro.experiments.figures",
    "repro.experiments.report",
    "repro.experiments.sweeps",
    "repro.experiments.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} is missing a module docstring"


@pytest.mark.parametrize(
    "name",
    ["repro", "repro.sim", "repro.net", "repro.rdcn", "repro.tcp",
     "repro.core", "repro.mptcp", "repro.retcp", "repro.apps", "repro.obs"],
)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_version():
    assert repro.__version__


def test_no_environment_knobs():
    # Behaviour is selected by config objects and arguments only: an
    # environment variable is an option no test matrix enumerates.
    package = pathlib.Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if "os.environ" in (text := path.read_text()) or "getenv" in text
    ]
    assert offenders == []


#: What a packet-fidelity cubic engine run does not use, so neither
#: the CLI import nor the run may load it (a name ending in "." stands
#: for the whole package).
NOT_LOADED_BY_A_PLAIN_RUN = (
    "repro.mptcp.", "repro.retcp.", "repro.sim.fastpath", "repro.faults.injectors",
    "repro.net.pcap", "repro.net.capture", "repro.apps.incast",
    "multiprocessing.", "concurrent.futures.", "logging.",
)


def test_the_package_runs_on_the_standard_library(tmp_path):
    # NumPy is the test suite's oracle, never the product's dependency:
    # a fresh interpreter that imports the CLI, runs the workload
    # engine, draws a figure row, renders and exports it must not have
    # imported it. Start-up loads only what a run uses: after the CLI
    # import and a cubic engine run, no optional subsystem is loaded.
    script = textwrap.dedent(
        """
        import sys

        import repro
        import repro.experiments.cli
        from repro.experiments.config import ExperimentConfig, WorkloadConfig
        from repro.experiments.runner import run_experiment

        workload = WorkloadConfig(
            cdf="custom", custom_cdf=((0.0, 10_000), (1.0, 10_000)), max_flows=4
        )
        engine = run_experiment(ExperimentConfig(
            variant="cubic", weeks=1, warmup_weeks=0, workload=workload,
            collect_voq=False, collect_sequence=False,
        ))
        assert engine.workload_summary["completed"] == 4
        forbidden = tuple(sys.argv[2].split(","))
        print(sorted(name for name in sys.modules
                     if name.startswith(forbidden) or name + "." in forbidden))

        from repro.experiments.figures import fig2
        from repro.experiments.report import figure_to_csv, render_fig10, render_seq_graph

        data = fig2(weeks=2, warmup_weeks=1, n_flows=1)
        assert "optimal" in render_seq_graph(data) and render_fig10(data)
        assert figure_to_csv(data, sys.argv[1])
        print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
        """
    )
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), ",".join(NOT_LOADED_BY_A_PLAIN_RUN)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "[]"]


def test_public_classes_have_docstrings():
    from repro.core import TDTCPConnection
    from repro.tcp import TCPConnection
    from repro.mptcp import MPTCPConnection
    from repro.retcp import ReTCPConnection

    for cls in (TDTCPConnection, TCPConnection, MPTCPConnection, ReTCPConnection):
        assert inspect.getdoc(cls)
        public = [
            m for name, m in inspect.getmembers(cls, predicate=inspect.isfunction)
            if not name.startswith("_")
        ]
        for method in public:
            assert inspect.getdoc(method), f"{cls.__name__}.{method.__name__} undocumented"


def test_event_names_are_read_in_one_module():
    # The run lifecycle has one definition, CampaignFold.apply in
    # obs/campaign.py; everything else reads the fold. Passing
    # record["event"] through (replay re-emits it) is fine — comparing
    # it against a literal is a second definition of the lifecycle.
    compare = re.compile(
        r"""(\[["']event["']\]|\.get\(["']event["']\))\s*(==|!=|(not\s+)?in\b)"""
    )
    package = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        if path.relative_to(package) != pathlib.Path("obs/campaign.py")
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if compare.search(line)
    ]
    assert offenders == []


def test_ecn_is_said_once_and_a_tor_has_one_queue_class():
    # The CCA asks for ECT (CongestionControl.wants_ecn), every two-rack
    # VOQ carries K, and a queue is one class with optional K / pool.
    # The names that said it a second time must not come back, under
    # any spelling a caller, a doc or an example could still use (whole
    # words: the test ids TestECNMarkingQueue / test_dctcp_needs_ecn
    # outlive the names they were written for).
    gone = re.compile(
        r"\b(needs_ecn|ECNMarkingQueue|Pooled(DropTail|ECNMarking)Queue|on_length_change"
        r"|_notify_length|deliver_local)\b|\._pooled\b|\._marks\b"
    )
    root = pathlib.Path(__file__).resolve().parent.parent
    this_file = pathlib.Path(__file__).resolve()
    ledger = root / "benchmarks" / "ledger"
    files = [root / "README.md", root / "DESIGN.md"]
    for top in ("src", "tests", "benchmarks", "examples", "tools", "docs"):
        files += [
            path for path in sorted((root / top).rglob("*"))
            if path.is_file() and path.suffix in (".py", ".md", ".json", ".txt", ".yml")
            and ledger not in path.parents and path != this_file
        ]
    offenders = [
        f"{path.relative_to(root)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if gone.search(line)
    ]
    assert offenders == []

    from repro.net import queues
    from repro.rdcn.notifier import TDNNotifier
    from repro.rdcn.topology import build_two_rack_testbed

    assert "ecn" not in inspect.signature(build_two_rack_testbed).parameters
    assert "night_policy" not in inspect.signature(TDNNotifier.__init__).parameters
    package = pathlib.Path(repro.__file__).parent
    fastpath = (package / "sim" / "fastpath.py").read_text()
    assert '"dctcp"' not in (package / "tcp" / "connection.py").read_text()
    assert '"dctcp"' not in fastpath and "mark_threshold" not in fastpath
    source = inspect.getsource(queues)
    assert re.findall(r"^class (\w+)", source, re.M) == ["DropTailQueue", "SharedBufferPool"]
    assert len(re.findall(r"^\s+def push\(", source, re.M)) == 1


def test_one_notifier_and_no_new_knob_for_the_rack_announcement():
    # Whether a host gets a real ICMP is read off what the notifier
    # already observes (fault hook, control network, who listens) —
    # never a second notifier class or a config field.
    from dataclasses import fields

    from repro.rdcn import notifier
    from repro.rdcn.config import NotifierConfig, RDCNConfig

    source = inspect.getsource(notifier)
    assert re.findall(r"^class (\w+)", source, re.M) == ["TDNNotifier"]
    assert [f.name for f in fields(NotifierConfig)] == [
        "packet_caching", "pull_model", "dedicated_network", "control_delay_ns",
        "night_policy",
    ]
    assert [f.name for f in fields(RDCNConfig)] == [
        "n_hosts_per_rack", "mss", "packet_rate_bps", "optical_rate_bps",
        "packet_one_way_ns", "optical_one_way_ns", "host_link_rate_bps",
        "host_link_delay_ns", "voq_capacity", "ecn_threshold", "buffer_policy",
        "buffer_alpha", "buffer_total_capacity", "schedule_pattern", "day_ns",
        "night_ns", "notifier", "seed",
    ]
    # The freshness filter is written once; the packet path and the
    # rack walk both call it.
    from repro.net import node

    assert inspect.getsource(node).count("self._last_notify_seq = ") == 1
    assert "notification_arrived(" in inspect.getsource(node.Host.deliver)
    assert "notification_arrived(" in inspect.getsource(notifier.TDNNotifier._arrive_at_rack)
    # The rotor fabric is a caller of that notifier and of the schedule
    # driver, not a second copy: no option for the announcement delay,
    # no packet built and no clock event scheduled outside the ToR's
    # own serializer.
    from repro.rdcn import opera

    assert [f.name for f in fields(opera.OperaConfig)] == [
        "n_racks", "n_hosts_per_rack", "mss", "link_rate_bps", "one_way_delay_ns",
        "host_link_rate_bps", "host_link_delay_ns", "slot_ns", "night_ns",
        "voq_capacity", "two_hop", "matching_policy", "buffer_policy",
        "buffer_alpha", "buffer_total_capacity", "seed",
    ]
    source = inspect.getsource(opera)
    assert "TDNNotification" not in source
    serializer = (inspect.getsource(opera.OperaToR._serve)
                  + inspect.getsource(opera.OperaToR._tx_done))
    # The serializer's two packet hops push handle-free entries.
    assert "sim.schedule" not in source and "sim.at(" not in source
    assert source.count("_queue.push") == serializer.count("_queue.push") == 2


def _ledger_wrap_targets():
    """``WRAP_TARGETS`` of the benchmark ledger's tracer, read from its
    file (the ledger is not a package on the test path)."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "ledger" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_ledger_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAP_TARGETS


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    [target[:3] for target in _ledger_wrap_targets()],
    ids=lambda value: value or "-",
)
def test_every_ledger_wrap_target_resolves(module_name, class_name, attr):
    # The ledger's traced pass wraps each product name the way
    # ``Tracer.install`` reads it: ``owner.__dict__[attr]``. A name
    # moved to a base class, renamed or deleted breaks the benchmark
    # run, not just its smoke job.
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    assert attr in owner.__dict__, f"{module_name}.{class_name or ''}.{attr} is gone"
    original = owner.__dict__[attr]
    assert callable(original) or isinstance(original, (classmethod, staticmethod))
