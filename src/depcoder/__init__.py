"""Dependence-regularized transformer encoder for x86-64 assembly.

Pipeline: parse a textual disassembly listing, derive instruction-level data
and control dependences, close them into an undirected connectivity graph,
build attention masks and a dependence-distance matrix, and pre-train /
evaluate a small masked-attention encoder on top.

Import the submodules by name.  The package itself loads nothing, so the CLI
can pin BLAS thread pools before numpy loads.
"""

__version__ = "0.1.0"
