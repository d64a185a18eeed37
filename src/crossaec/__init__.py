"""Crossmodal ASR error correction at desk scale: so far, the parts.

Float64 autodiff, transformer layers, Adam and a gradient check
(``crossaec.nn``); synthetic word-aligned acoustics made in memory, mean
pooling, FFT resampling and padded DSU sequences (``acoustic``); a
vocabulary and the JSONL corpus reader (``text``); WER, BLEU and GLEU
(``metrics``).
"""

__version__ = "0.1.0"
