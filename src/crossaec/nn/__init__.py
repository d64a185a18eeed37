"""Autodiff substrate with exact gradients; import each name from its submodule."""
