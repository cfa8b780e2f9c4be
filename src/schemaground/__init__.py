"""Schema-grounded visual question answering pipeline.

Parse concept schemas written in a small generative mini-language, ground
their components on images through pluggable chat/vision backends, answer
visual questions under a five-mode prompting ladder, and score predictions
with exact-match and graded accuracy.
"""

__version__ = "0.1.0"
