"""De Bruijn encoding, categorical-combinator compilation, and
evaluation by closure.

The de Bruijn form and the categorical code are one object printed in
two notations: index n is n!, application $[.,.], abstraction L(.), a
pair <.,.> and a constant its quote 'c (Curien 1986).

Run with:  python3 demos/03_categorical_machine.py
"""

from appliq import cam_compile, cam_eval_closure, encode, parse, print_cat
from appliq.cam import cam_trace_lines, expand_abbreviations
from appliq.debruijn import print_dterm

SOURCE = r"(\x. x [4, (\x. x) 3]) +"

term = parse(SOURCE)
dterm = encode(term)
print(f"source term:        {SOURCE}")
print(f"de Bruijn form:     {print_dterm(dterm)}")
code = cam_compile(dterm)  # the same object: encoding did the compiling
print(f"categorical code:   {print_cat(code)}")
print(f"with quotes spelt:  {print_cat(code, expand_quotes=True)}")
print()

print("computing by closure (code applied to the empty environment):")
out = cam_eval_closure(code, collect_trace=True)
for (rule, _), line in zip(out.trace, cam_trace_lines(out.trace)):
    tag = f"({rule})" if rule else ""
    print(f"  {line}  {tag}")
print()

# $[.,.] and n! abbreviate compositions over the primitive combinator
# set; the expanded code computes the same value with fewer rule kinds.
expanded = expand_abbreviations(code)
print(f"expanded to primitives: {print_cat(expanded)}")
prim = cam_eval_closure(expanded, primitive_only=True)
print(f"primitive-only evaluation: {print_cat(prim.result)} "
      f"in {prim.steps_used} steps")
