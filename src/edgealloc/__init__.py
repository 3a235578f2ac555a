"""Query-to-edge-node allocation: decision engine, simulator and benchmarks.

The pipeline matches incoming analytics queries with simulated edge nodes:
a complexity score and per-node data relevance feed three trained ensembles
whose fused opinions drive a one-vs-all vote over the nodes.

The package exports nothing itself; import from its modules.  The entry
points are ``cli`` (the ``edgealloc`` command), ``simulator`` (scenarios,
traces, training data and the decision loop), ``allocator`` (fusion and the
vote), ``bench`` (training bundles and running sweep cells) and
``metrics`` (run records and result files).
"""
