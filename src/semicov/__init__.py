"""Semiconjugacies of degree-d coverings of the circle and open annulus."""

from .circle import LiftedCircleMap, find_periodic_points, from_function, make_lift, model_lift
from .semiconj1d import (SelfConjugacy, SemiconjugacyField1D, contraction_step,
                         rotation_number, self_conjugacies, solve_semiconjugacy)
from .classify import (ClassificationData, IntervalSignature, Insertion, PlateauRecord,
                       Verdict, blow_up, classification_data, classify_circle_point,
                       compare_classification, interval_signature, plateau_set,
                       transform_insertions)

__all__ = [
    "LiftedCircleMap", "find_periodic_points", "from_function", "make_lift", "model_lift",
    "SelfConjugacy", "SemiconjugacyField1D", "contraction_step", "rotation_number",
    "self_conjugacies", "solve_semiconjugacy",
    "ClassificationData", "IntervalSignature", "Insertion", "PlateauRecord", "Verdict",
    "blow_up", "classification_data", "classify_circle_point", "compare_classification",
    "interval_signature", "plateau_set", "transform_insertions",
]

__version__ = "0.1.0"
