"""Frozen high-precision reference values.

Computed once during development with an independent arbitrary-precision
integrator (50 significant digits, interval-splitting around the
near-axis spike, cross-checked by three unrelated methods: stabilized
quadrature, direct ODE integration of the angle, and the n = 2 closed
form).  They are recorded here to far more digits than any tolerance in
the suite so the package is tested against values it cannot have
produced itself.

``perfbench/mpref.py`` (mpmath, no hypcmc import) recomputes XI,
K_NEAR_AXIS_N2, K_GRID and K_GUARD_EDGE to every stored digit, and its
roots and 50-digit integrands give HALF_WAY; ``test_frozen_refs.py``
checks them.
"""

# xi_n(H) = flux at the threshold constant
XI = {
    (2, -1.005): -7.398670360588754993568,
    (2, -1.1): -4.643848073552242789679,
    (2, -10.0): -3.149491123034711905338,
    (2, -100.0): -3.141671197824304472053,
    (3, -1.0): -5.971067631784845777613,
    (3, -1.1): -4.422456798006462928806,
    (3, -10.0): -3.148613021631167152445,
    (3, -100.0): -3.141662470638646434331,
    (4, -1.0): -4.599155056762531442607,
    (4, -1.1): -4.045697184398145373563,
    (4, -10.0): -3.147511842670372455303,
    (4, -100.0): -3.14165156130542202026,
    (5, -1.0): -4.13016227992555595548,
    (5, -1.1): -3.821823888504269919911,
    (5, -10.0): -3.146640423037414669316,
    (5, -100.0): -3.141642921183510020658,
}

# unique root of xi_2(H) = -2*pi
H0_N2 = -1.015813665717860840945259

# solutions of K(C, -1.1) = -2*pi/m at n = 2 (first crossing from C0)
CSTAR_N2_M5 = -0.683566090934480203502
CSTAR_N2_M10 = -0.1960716552407582620281

# the flux at C = -0.9091743461769703, n = 2, H = -1.1 (a constant 9.2e-5
# (relative) below the threshold Ctilde = 1/H): the true value is within
# 9e-5 of xi_2(-1.1) - pi, NOT -2*pi -- the flux jumps by -pi as C
# approaches Ctilde from below because the profile grazes the rotation axis
K_NEAR_AXIS_N2 = -7.785530530038739197444

# the profile half-way up, where g = (t1 + t2) / 2: (g_mid, t_mid,
# theta_mid), with t_mid and theta_mid the partial integrals from t1 to
# g_mid of the time dv / sqrt(q(v)) and of the angle rate, at the fig1
# constant (near the axis) and at a constant 8% from Ctilde
HALF_WAY = {
    (2, -1.1, -0.9091743461769703): (1.621044927851211692201187,
                                     1.487608199349531204490213,
                                     -2.892136149910878617893024),
    (3, -1.5, -0.7): (0.9376116856536633112318602,
                      0.4102488628714849960185354,
                      0.4401577726485102711108316),
}

# the flux K(C, H) over a grid, keyed by (n, H, C): for each (n, H), C
# at 1e-5 |C0| above C0, half-way from C0 to Ctilde, Ctilde (1 +/- rel)
# with rel = 1e-3, 1e-5, 1e-7 and 2e-9 for n = 2, 3, 5, 8, and
# 1e-3 Ctilde (toward 0); two C at 1e-2 |C0| above C0; and a constant
# 6.4e-4 |C0| above C0 at (4, -10), where the float roots are less well
# conditioned
K_GRID = {
    (2, -1.1, -1.2834720261602215): -8.192735032287589633234,
    (2, -1.1, -1.0962878850498703): -7.987155284020257759574,
    (2, -1.1, -0.9099999999999999): -7.786419162325267651586,
    (2, -1.1, -0.9081818181818182): -1.501276952431020768043,
    (2, -1.1, -0.0009090909090909091): -0.04173914849363334753188,
    (3, -1.5, -0.8079049296318687): -6.717005532339912665954,
    (3, -1.5, -0.785527918565422): -6.711138266133883235889,
    (3, -1.5, -0.7631504597971717): -6.705173087728069463093,
    (3, -1.5, -0.7631351969406043): -0.4219836777210922877634,
    (3, -1.5, -0.0007631428283688879): -0.01343253973181967175004,
    (5, -3.0, -0.6473173392859496): -6.341927910301559569413,
    (5, -3.0, -0.6458589137506645): -6.341865107218957185103,
    (5, -3.0, -0.6443940794166557): -6.341801945151539848073,
    (5, -3.0, -0.6443939505378528): -0.05861663241117137658214,
    (5, -3.0, -0.0006443940149772542): -0.001901225551180661510477,
    (8, -1.5, -0.9102500848701979): -6.460036903305959530203,
    (8, -1.5, -0.9069305955359587): -6.459857685780298192174,
    (8, -1.5, -0.9036020054170488): -6.459677058370816436954,
    (8, -1.5, -0.9036020018026408): -0.176491750994591134824,
    (8, -1.5, -0.0009036020036098449): -0.007091718939315454803037,
    (3, -1.5, -0.7998338786743368): -6.714900352544795571968,
    (8, -1.5, -0.9011565955874518): -0.176358460646778918727,
    (4, -10.0, -0.31622460373917777): -0.005919159554672010896195,
}

# the flux at the lower guard-band edge, C = Ctilde (1 + 1.0000001e-9),
# at H = -100, where the embedded scan of solve_C ends
K_GUARD_EDGE = {
    (3, -100.0, -0.04641588838254369): -6.283255124228474581327,
    (5, -100.0, -0.15848931940460068): -6.283235574773328391864,
    (8, -100.0, -0.3162277663330657): -6.283219669355963575669,
}
