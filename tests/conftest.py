import pytest

# tests/oracles.py checks its own derivations with assert statements;
# rewriting them as pytest does a test module's keeps them under python -O
pytest.register_assert_rewrite("oracles")
