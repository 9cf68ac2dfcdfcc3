"""Reconfigurable data center network (RDCN) substrate.

Implements the hybrid demand-oblivious RDCN of §2.1: a week of fixed-
duration days separated by reconfiguration nights, a time-multiplexed
rack-to-rack fabric with per-direction VOQs, and ToR-generated TDN
change notifications with the §5.4 latency component model.
"""

from repro.rdcn.config import RDCNConfig, NotifierConfig
from repro.rdcn.schedule import Day, TDNSchedule, ScheduleDriver
from repro.rdcn.fabric import NetworkPath, RackUplink
from repro.rdcn.notifier import TDNNotifier
from repro.rdcn.topology import TwoRackTestbed, build_two_rack_testbed
from repro.rdcn.rotor import round_robin_matchings
from repro.rdcn.opera import OperaConfig, OperaTestbed, build_opera_testbed

__all__ = [
    "RDCNConfig",
    "NotifierConfig",
    "Day",
    "TDNSchedule",
    "ScheduleDriver",
    "NetworkPath",
    "RackUplink",
    "TDNNotifier",
    "TwoRackTestbed",
    "build_two_rack_testbed",
    "round_robin_matchings",
    "OperaConfig",
    "OperaTestbed",
    "build_opera_testbed",
]
