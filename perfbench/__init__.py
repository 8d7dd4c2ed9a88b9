"""The repository's end-to-end benchmark: ``cold``, ``warm`` and
``churn`` workloads over integrated address books, with a traced run
that attributes op time to each layer (see ``perfbench/README.md``)."""
