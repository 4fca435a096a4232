"""Level sequences of Euler quotients: constructions and complexity analysis."""
