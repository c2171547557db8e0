"""With- vs without-replacement component sampling for SAG.

The analytic machinery assumes independent uniform component draws;
epoch-shuffled (without-replacement) sampling is a popular practical
variant.  This prints both mean curves side by side; no claim is asserted,
the comparison is purely observational.
"""

from lblab import harness

cfg = harness.load_config(None, n=8, d=4, L=100.0, mu=1.0,
                          iterations=160, seeds=40)
_, csv = harness.cmd_sampling_compare(cfg)

lines = csv.splitlines()
print(lines[1])
for line in lines[2::20]:
    print(line)
