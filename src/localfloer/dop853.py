"""The explicit Runge-Kutta method DOP853 of Dormand and Prince, in numpy.

``solve_ivp`` runs the path of scipy 1.17.1's
``scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=...,
atol=...)`` operation for operation: the tableau below is scipy's, as the
same decimal literals; the initial step, the step control, the error norm,
the dense output and the choice of its segment are scipy's; and so are the
right-hand-side count ``nfev`` and the refusal "Required step size is less
than spacing between numbers."  So a flow gives scipy's bits without
importing scipy.  Only what the package uses is kept: forward time spans,
scalar tolerances, no events and no ``t_eval``.  The solver creates no
reference cycle, so what it allocates is freed when its result is.

References: E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary
Differential Equations I: Nonstiff Problems, Sec. II; scipy's
``scipy/integrate/_ivp/rk.py`` and ``dop853_coefficients.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["solve_ivp", "OdeResult", "DenseSolution"]

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# the first 3 rows of the interpolant come from the step's end values
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# the stepping tableau and the three extra stages of the dense output
A_STEP, C_STEP = A[:N_STAGES, :N_STAGES], C[:N_STAGES]
A_EXTRA, C_EXTRA = A[N_STAGES + 1 :], C[N_STAGES + 1 :]

# step size control: safety factor and bounds of one change
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
FINISHED = "The solver successfully reached the end of the integration interval."


class DenseSolution:
    """The continuous extension of a solution: on each step the degree-7
    interpolant of DOP853, in scipy's nested form.  Called with a 1-D
    array of times, it returns the states, shape (n, len(t)); a time is
    read on the first step whose closed interval holds it, and a time
    outside the span on the nearest end step."""

    def __init__(self, ts: np.ndarray, y_old: np.ndarray, coeffs: np.ndarray):
        self.ts = ts
        self.y_old = y_old
        self.coeffs = coeffs

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.y_old) - 1)
        t_old = self.ts[seg]
        x = ((t - t_old) / (self.ts[seg + 1] - t_old))[:, None]
        y = np.zeros((len(t), self.y_old.shape[1]))
        for i, f in enumerate(self.coeffs[seg].transpose(1, 0, 2)[::-1]):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old[seg]
        return y.T


@dataclass
class OdeResult:
    """What ``solve_ivp`` returns: the step times t, the states y of shape
    (n, len(t)), the dense solution sol (None unless asked for), the
    right-hand-side count nfev, and status 0 with success True on reaching
    the end, status -1 with the failure's message otherwise."""

    t: np.ndarray
    y: np.ndarray
    sol: Optional[DenseSolution]
    nfev: int
    status: int
    message: str
    success: bool


def _norm(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of order 7."""
    if y0.size == 0:
        return np.inf
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K: np.ndarray, h, scale: np.ndarray):
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve_ivp(
    fun: Callable[[float, np.ndarray], np.ndarray],
    t_span,
    y0: np.ndarray,
    *,
    rtol: float,
    atol: float,
    dense_output: bool = False,
) -> OdeResult:
    """Solve y' = fun(t, y) over t_span = (t0, t1), t1 > t0, from the 1-D
    state y0, as scipy's ``solve_ivp`` with method "DOP853" does.  rtol is
    at least 100 machine epsilons (scipy raises smaller ones to that)."""
    t0, t_bound = map(float, t_span)
    if not t_bound > t0:
        raise ValueError("the time span must increase")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    atol = np.asarray(atol)
    nfev = 0

    def rhs(t, state):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, state), dtype=float)

    n = y.size
    t = t0
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, t_bound, f, rtol, atol)
    K_ext = np.empty((N_STAGES_EXTENDED, n))
    K = K_ext[: N_STAGES + 1]
    ts, ys, y_olds, coeffs = [t0], [y0], [], []
    status, message = 0, FINISHED
    while True:
        if n == 0:
            t_old, t, h, y_old, f_old = t, t_bound, None, y, f
        else:
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            step_rejected = False
            while True:
                if h_abs < min_step:
                    status, message = -1, TOO_SMALL_STEP
                    break
                t_new = t + h_abs
                if t_new - t_bound > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = np.abs(h)
                # one Runge-Kutta step, its error estimate and the next step size
                K[0] = f
                for s, (a, c) in enumerate(zip(A_STEP[1:], C_STEP[1:]), start=1):
                    dy = np.dot(K[:s].T, a[:s]) * h
                    K[s] = rhs(t + c * h, y + dy)
                y_new = y + h * np.dot(K[:-1].T, B)
                f_new = rhs(t + h, y_new)
                K[-1] = f_new
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error_norm = _error_norm(K, h, scale)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                    if step_rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                step_rejected = True
            if status:
                break
            t_old, t, y_old, y, f_old, f = t, t_new, y, y_new, f, f_new
        if dense_output:
            part = np.zeros((INTERPOLATOR_POWER, n))
            if n:
                for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=N_STAGES + 1):
                    dy = np.dot(K_ext[:s].T, a[:s]) * h
                    K_ext[s] = rhs(t_old + c * h, y_old + dy)
                delta_y = y - y_old
                part[0] = delta_y
                part[1] = h * f_old - delta_y
                part[2] = 2 * delta_y - h * (f + f_old)
                part[3:] = h * np.dot(D, K_ext)
            y_olds.append(y_old)
            coeffs.append(part)
        ts.append(t)
        ys.append(y)
        if t - t_bound >= 0:
            break
    ts = np.array(ts)
    sol = None
    if dense_output:
        sol = DenseSolution(ts, np.array(y_olds).reshape(-1, n), np.array(coeffs))
    return OdeResult(
        t=ts,
        y=np.vstack(ys).T,
        sol=sol,
        nfev=nfev,
        status=status,
        message=message,
        success=status >= 0,
    )
