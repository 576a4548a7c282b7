"""
v1-periodic Adams charts for smashed K-theory spectra
=====================================================

Change-of-rings reduces the Adams initial terms to Ext over an exterior
Hopf algebra on one degree-3 class; the differential schedules then
leave one free v1-tower and a ladder of torsion modules, tabulated as
homotopy groups.
"""

from thhforge import adams as ad

# the comodule underlying THH(ku) smashed with the mod-2 Moore spectrum
# is entirely primitive, so its Ext is the free form
m = ad.build_comodule("thh-ku-mod2", 40)
e2 = ad.ext_over_exterior(m, 12, 40)
print("initial term columns (stems 0..12):",
      [e2.column(d, 12) for d in range(13)])

# the schedules satisfy the degree identity 2 r(n) + s(n) = 2^{n+2} - 1
sched = ad.schedule("thh-ku-mod2", 6)
print("\n(r, s) for n = 1..4:", [(sched.r[n], sched.s[n]) for n in (1, 2, 3, 4)])
print("identity holds to n = 10:", ad.schedule("thh-ku-mod2", 10).degree_identity_holds(10))

# run the spectral sequence: every stage is verified by per-bidegree
# kernels on the active free part before its torsion summand is recorded
einf, module, log = ad.run_ss("thh-ku-mod2", 40)
print("\nstages:", log)

# one v1-free tower survives (the unit); everything else is torsion
print("\nhomotopy of THH(ku) smash Moore, degrees 0..9:")
for row in ad.homotopy_table("thh-ku-mod2", 9):
    gens = ", ".join(
        f"{g['label']}" + (f" (v1^{g['v1_power']})" if g["v1_power"] else "")
        for g in row["generators"]
    )
    print(f"  pi_{row['degree']}: {gens or '0'}")

# text chart: rows are Adams filtrations, columns are stems
print("\n" + ad.text_chart(einf, 16, 8))

# the four-cell target behaves the same way with its own schedule,
# whose first torsion tower dies immediately (r(1) = 1)
einf_ko, module_ko, _ = ad.run_ss("thh-ko-y", 40)
torsion_ko = [g for g in module_ko.in_degree(5) if g["torsion"] is not None]
print("\nTHH(ko) smash Y, degree 5 generators:",
      [g["label"] for g in torsion_ko], "torsion", [g["torsion"] for g in torsion_ko])
