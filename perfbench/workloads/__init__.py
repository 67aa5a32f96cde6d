"""The benchmark's workloads, by name."""

from workloads import cold_cli, fleet_remote, grid_pool, serve_open

WORKLOADS = {module.NAME: module
             for module in (cold_cli, grid_pool, fleet_remote, serve_open)}
