"""Frozen high-precision reference values.

Computed once during development with an independent arbitrary-precision
integrator (50 significant digits, interval-splitting around the
near-axis spike, cross-checked by three unrelated methods: stabilized
quadrature, direct ODE integration of the angle, and the n = 2 closed
form).  They are recorded here to far more digits than any tolerance in
the suite so the package is tested against values it cannot have
produced itself.

``perfbench/mpref.py`` (mpmath, no hypcmc import) recomputes XI and
K_NEAR_AXIS_N2 to every stored digit, and its roots and 50-digit
integrands give HALF_WAY; ``test_frozen_refs.py`` checks them.
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
