"""svsim benchmark harness: workloads, tracing and the run command."""
