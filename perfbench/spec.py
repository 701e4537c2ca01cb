"""What the benchmark measures: its workloads and its end-to-end metrics.

Kept free of numpy and oplimits imports so the driver can read it before
any pass has started.
"""

# workload -> (experiments run through cli.main, (shares of the traced
# pass wall whose sum the workload's rationale predicts, least sum))
WORKLOADS = {
    "operator-sweep": (("voronovskaya", "korovkin", "kelisky-rivlin"),
                       (("operators.self_share",), 0.5)),
    "kernel-ladder": (("semigroup",),
                      (("iterates.kernel_iterate.self_share",
                        "iterates.build_sm_kernel.self_share"), 0.9)),
    "chain-sampling": (("weak-convergence",),
                       (("iterates.chain_terminal_values.self_share",
                         "diffusion.self_share", "mc.self_share"), 0.9)),
    "library-calls": ((),
                      (("operators.self_share", "diffusion.self_share",
                        "mc.self_share"), 0.9)),
}

# (name, unit, better): medians over the untraced passes of a run
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
