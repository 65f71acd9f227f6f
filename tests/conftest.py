"""Shared fixtures: the N=1 workhorse pencil and a CLI harness."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from gpspectra import ExponentialKernel, ModePencil
from gpspectra.cli import main

# Roots of the cleared cubic z**3 + 2z**2 + 100z + 190 (the workhorse
# pencil below), frozen from a 40-digit Newton polish of the exact
# coefficients.  Double-check: 190/|mu_1|/|pair|**2 = 1 to 16 digits.
MU_1 = -1.9034966068012287
PAIR = -0.04825169659938571 + 9.990694565057858j

# Ladders (coeffs, rates, a, xi) of perfbench's random_modes pool whose real
# roots sit inside the transform's pole guard: pool entry 527 has five roots
# within 1.4e-12 of their poles (below 1e-13 * g_max), entry 619 eight
# pinched roots, the closest 1.1e-13 from its pole.
PINCHED_FIVE = (
    (0.027209640330231735, 0.18221727070225166, 0.04388710431883703,
     0.8642757147205821, 0.01785422167470183, 0.6445962398603519,
     0.01860696446372273, 0.616506857038023, 0.01738124265504293),
    (0.6342280476514871, 1.3937729841299715, 10.926312107752533,
     11.10056475998144, 13.241605317620879, 15.276987599564382,
     20.058801312215603, 22.047700340409033, 22.162843391484333),
    637280.0617993774, 0.09467011703938635,
)
PINCHED_EIGHT = (
    (0.009063925450145229, 0.20178507197663306, 0.02366613949678161,
     0.019746498615638156, 0.0052287818825832695, 0.08917063136052075,
     0.013985573676019032, 0.007166121785549923, 0.019695566102429982,
     0.12642680082556051),
    (0.7547139058348149, 1.185558303034324, 6.419223274411688,
     7.842541290923249, 8.319985546968917, 8.461802119847036,
     14.259899713227933, 15.050518919349427, 18.067872509740848,
     20.73822299022735),
    523269.1795203003, 0.06570376490251909,
)
# Pool entry 712: nine of twelve rates packed into [16.3, 21.3], whose real
# roots form a tight cluster.  Aberth sweeps carried in double precision
# miss it while passing the backward-error gate (one such variant returned
# -18.0659... twice and lost -17.6447...); the extended-precision carry
# resolves it.
CLUSTER_TWELVE = (
    (0.397617587908976, 0.30558682560353945, 0.46608461725175915,
     1.1010949959870975, 1.8745770318909083, 1.8703016116952762,
     0.13806047910477554, 1.6976689834574605, 2.1053360112996335,
     0.07747569556170336, 1.365448219661422, 0.07578910357741024),
    (5.795868725051895, 7.020289660334409, 9.498502700816477,
     16.315144582912747, 17.353823133478983, 17.51632262050904,
     17.65215568020307, 17.9973262949408, 18.121917630580246,
     19.714496024288568, 20.224083312406943, 21.303147208133197),
    76074.6194480853, 0.9169323406585285,
)


# Pool entries whose double-precision companion eigenvalues (real matrix,
# real QR) hold conjugate pairs beside clusters of real roots, where the
# polynomial has only real roots: 615 (10 poles), 656 (11), 725, 732 and
# 749 (12 each); entry 712, the sixth, is CLUSTER_TWELVE above.
POOL_615 = (
    (0.1482714563314723, 1.3501700851319165, 2.5041760894816005, 1.2341986790152824,
     1.6447448451023354, 0.06929041911265392, 0.9646370130987623, 2.090212669408968,
     3.7621560553231053, 0.3236620366979928),
    (7.034911207068375, 11.633909401722146, 18.606769711495605, 23.3154995392288,
     23.4159155516731, 31.754490029604458, 31.878266034423504, 31.995939836969537,
     32.333023561116114, 32.848798212954094),
    241052.88941679694, 0.08529297680292813,
)
POOL_656 = (
    (0.07847777106718118, 0.3943930357745294, 1.2916768496343116, 0.07298463374214656,
     0.3799332088727592, 0.20012256714181273, 3.880919240491701, 0.5200927479540264,
     0.07322441973115944, 4.289112210321771, 0.9710108918554173),
    (9.459092715845353, 9.75949223697356, 12.496562489915203, 12.85843689091618,
     16.197201553858353, 16.372783342610035, 16.50721175011187, 17.557459570868815,
     18.159243734911566, 19.272849806964935, 21.19208314171713),
    15601.183098182131, 0.13133973627275705,
)
POOL_725 = (
    (1.0878924997982435, 0.018945497481484268, 0.5957357339684207, 0.20791800408611044,
     0.09325907530613498, 0.04873371367120947, 0.012526067156130513, 0.02044958166279482,
     0.019901781440063913, 0.3911563653794776, 0.012239818367460777, 0.17468719917683465),
    (2.19741423374256, 6.00509058057418, 6.8530706022916235, 7.128715842155208,
     10.283121331528585, 10.532693103498875, 11.130848072221912, 11.245872623451323,
     11.480092393830905, 11.651443490466468, 15.276538732534531, 15.74908699818934),
    817274.9271520326, 0.5597998399165537,
)
POOL_732 = (
    (0.22445362268250416, 2.459660401486954, 0.3858740588401765, 0.4858954782375674,
     0.24303012029142917, 0.4609005302082833, 0.43132788503885017, 0.3607765883469143,
     0.8708368981150241, 0.050932489277208254, 2.475357383408102, 0.6925082163743203),
    (7.386694101564899, 7.658820692978631, 16.12843584337424, 18.442830981704223,
     19.105959854854746, 20.888243379904008, 21.579659950379465, 21.700789212806516,
     26.87099561584863, 27.03588957462844, 27.13717266147415, 28.32029497189577),
    877.1131798459734, 0.2606306447774337,
)
POOL_749 = (
    (0.5323250651494505, 0.9344768230780969, 1.2036162337994358, 0.06416337572195309,
     0.1625426374491605, 0.06344315115943173, 0.13750271342816398, 0.5767170434597119,
     0.14448373627393904, 0.06870997529951545, 0.2413046134346642, 0.4733564575819491),
    (6.76565720695514, 7.202367492897068, 7.613809022265642, 8.697060014804565,
     9.677803098661085, 11.59446174244297, 11.840687558623051, 11.971508420145765,
     12.089190487674024, 13.266474693742879, 13.633954534946692, 13.968412598449532),
    43582.54929853637, 0.6446138838310076,
)
# ROADMAP item 1's ladders past the reach of a floating-point oracle.
# RECIPE_TWENTY_FOUR is the first n = 24 draw of recipe_pencil after ten
# n = 16 draws from random.Random(5); an oracle sweeping in long double
# returned 20 of its 26 roots non-real, 0.12 off.  CLUSTER_EIGHT packs
# eight rates into 8.2e-7 relative (random.Random(11): base
# 10**u(-1, 1), rates base * (1 + cumsum of eight 10**u(-9, -6)),
# amplitudes 10**u(-1, 1) scaled to sum c/g = 0.5); the same oracle
# turned its cluster of real roots into complex ones, 3.3e-3 off.
RECIPE_TWENTY_FOUR = (
    (0.3714123842254241, 0.027617016931583832, 0.006372103140316907, 0.12228492279658701,
     0.009885502989940795, 0.09025519761975224, 0.050637069371814745, 0.3263062839750015,
     0.06346906365641927, 0.08600743752957729, 0.016568141764180127, 0.06253612313469706,
     0.0158913528502967, 0.15629230072967829, 0.05330546876838275, 0.009127294360264507,
     0.014508448843739318, 0.02724009424730519, 0.1466513758634964, 0.0112569602613557,
     0.1316354839513263, 0.10064862382930606, 0.007299062257484581, 0.10682841565889274),
    (1.9564774486539973, 9.98230872505615, 12.642339932069476, 12.828228113481547,
     13.212807336835231, 20.067620955055027, 20.266899255879355, 21.931169615897378,
     22.60394872412068, 22.814016668872345, 24.571171749825385, 24.693387104253887,
     24.85798695501212, 25.431308301064433, 25.570626509397215, 25.70097994762472,
     27.11518184497795, 30.167819446508663, 35.88147739455102, 36.06711490947173,
     36.79714540963495, 37.22288029645377, 38.809362695618574, 39.76250890346375),
    5.607247882615335, 0.5845768325638113,
)
CLUSTER_EIGHT = (
    (0.07550498513666995, 0.003021821409449835, 0.007921809721377822, 0.002974150603709874,
     0.08152878122607723, 0.047741806304452794, 0.0023756505298784198, 0.18047153945744265),
    (0.8030805870232229, 0.8030810627864365, 0.803081082817745, 0.8030811096268877,
     0.8030811560691743, 0.8030811589448514, 0.8030811865179152, 0.8030812488063285),
    1000.0, 0.5,
)
WIDE_LADDERS = {"RECIPE_TWENTY_FOUR": RECIPE_TWENTY_FOUR, "CLUSTER_EIGHT": CLUSTER_EIGHT}

# An admissible one-term mode that is overdamped: load 0.93, but the
# cleared cubic has three real roots, -4.1715, -0.95591 and -5.96e-6 (by
# mpmath at 120 digits), and no oscillatory pair.  A draw of ROADMAP item
# 3's near-overload recipe (random.Random(3)); its pair solve converges
# onto the real root -0.95591, which the pair's disc refuses.
OVERDAMPED_ONE = ((8.64678311216163,), (5.127377392505469,), 1.9968933769799135, 0.6221806198141612)


SPURIOUS_PAIR_LADDERS = {
    "615": POOL_615, "656": POOL_656, "712": CLUSTER_TWELVE,
    "725": POOL_725, "732": POOL_732, "749": POOL_749,
}


def recipe_pencil(
    n: int, uniform, gaps=(-1.0, 1.0), strength=(0.2, 0.85), log_a=(0.0, 6.0), xi=(0.05, 0.95)
) -> ModePencil:
    """One pool-style ladder of size n, each number drawn by uniform(lo, hi):
    log-uniform first rate and amplitudes over [0.1, 10], gaps 10**u(gaps),
    memory strength sum c/g in ``strength``, a = 10**u(log_a) and xi in
    ``xi``.  The defaults are the random_modes pool's."""
    rates = np.cumsum([10.0 ** uniform(-1.0, 1.0)] + [10.0 ** uniform(*gaps) for _ in range(n - 1)])
    raw = np.array([10.0 ** uniform(-1.0, 1.0) for _ in range(n)])
    coeffs = raw * (uniform(*strength) / float(np.sum(raw / rates)))
    a = 10.0 ** uniform(*log_a)
    return ModePencil(a, uniform(*xi), ExponentialKernel(tuple(coeffs.tolist()), tuple(rates.tolist())))


@st.composite
def admissible_modes(draw):
    """Pool-style ladders of sizes 1..12 (:func:`recipe_pencil`)."""
    n = draw(st.integers(1, 12))
    return recipe_pencil(n, lambda lo, hi: draw(st.floats(lo, hi)))


@st.composite
def wide_frequency_modes(draw):
    """Pool-style ladders of sizes 1..12 over a wide frequency range: gaps
    10**u(-3, 1), memory strength sum c/g in [0.05, 0.99], a log-uniform
    over [0.1, 1e150] and xi in [0.02, 0.98].  Below a of about 0.7 the
    load w*sum c/g can reach 1, so some draws are overloaded."""
    n = draw(st.integers(1, 12))
    return recipe_pencil(
        n, lambda lo, hi: draw(st.floats(lo, hi)),
        gaps=(-3.0, 1.0), strength=(0.05, 0.99), log_a=(-1.0, 150.0), xi=(0.02, 0.98),
    )


def recipe_sample(seed: int, per_size: int) -> list[ModePencil]:
    """``per_size`` pool-style ladders of each size 1..12, drawn from one
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [recipe_pencil(n, rng.uniform) for n in range(1, 13) for _ in range(per_size)]


def in_disc(root, p: ModePencil, center: complex, radius: float) -> bool:
    """|root/a - i - center| <= radius, exactly: the pair disc's test of a root."""
    a = Fraction(p.frequency)
    dr = Fraction(root.real) / a - Fraction(center.real)
    di = Fraction(root.imag) / a - 1 - Fraction(center.imag)
    return dr * dr + di * di <= Fraction(radius) ** 2


@pytest.fixture()
def cubic() -> ModePencil:
    """c=(1), g=(2), a=10, xi=0.5 -> cleared polynomial z^3+2z^2+100z+190."""
    return ModePencil(
        frequency=10.0, xi=0.5, kernel=ExponentialKernel((1.0,), (2.0,))
    )


@pytest.fixture()
def run_cli(tmp_path, capsys):
    """Run the CLI with a config dict; returns (exit_code, stdout, stderr)."""

    counter = {"n": 0}

    def run(job: str, config: dict, *extra: str):
        counter["n"] += 1
        path = tmp_path / f"config_{counter['n']}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main([job, "--config", str(path), *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


CUBIC_CONFIG = {
    "kernel": {"coeffs": [1.0], "rates": [2.0]},
    "xi": 0.5,
    "modes": [10.0],
}


@pytest.fixture()
def cubic_config() -> dict:
    return dict(CUBIC_CONFIG, kernel=dict(CUBIC_CONFIG["kernel"]))
