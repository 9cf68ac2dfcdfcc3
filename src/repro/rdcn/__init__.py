"""Reconfigurable data center network (RDCN) substrate.

Implements the hybrid demand-oblivious RDCN of §2.1: a week of fixed-
duration days separated by reconfiguration nights, a time-multiplexed
rack-to-rack fabric with per-direction VOQs, and ToR-generated TDN
change notifications with the §5.4 latency component model.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("RDCNConfig", "NotifierConfig"),
    "schedule": ("Day", "TDNSchedule", "ScheduleDriver"),
    "fabric": ("NetworkPath", "RackUplink"),
    "notifier": ("TDNNotifier",),
    "topology": ("TwoRackTestbed", "build_two_rack_testbed"),
    "rotor": ("round_robin_matchings",),
    "opera": ("OperaConfig", "OperaTestbed", "build_opera_testbed"),
})
