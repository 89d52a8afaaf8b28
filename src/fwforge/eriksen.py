"""Direct block-diagonalization of H = beta m + E + O in one step.

The transform is built from the involution lambda = H/sqrt(H^2): the
unitary U = (1 + beta lambda)/sqrt(2 + beta lambda + lambda beta) maps H
to an exactly even operator.  Everything is expanded in the free algebra
under a truncation budget, so each identity below is checked as exact
cancellation of rational coefficients, not numerically.

`reference_target` encodes the closed-form even series this pipeline is
compared against: "full" carries every bracket through nominal
hbar-order 3, "order2" drops the order-3 brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fwforge.fseries import nc_binomial_power
from fwforge.lang import term_strings
from fwforge.ncalg import (
    AbstractExpr,
    Acomm,
    BetaF,
    BracketExpr,
    Budget,
    Comm,
    EpsFun,
    Gen,
    MPow,
    PowN,
    Prod,
    Rat,
    Sum,
    expand,
)

# Classes (eCount, oCount) the closed-form target is known to cover.
SCOPE_MAX_WEIGHT = 8  # 2e + o
SCOPE_MAX_E = 3


def in_reference_scope(e: int, o: int) -> bool:
    return 2 * e + o <= SCOPE_MAX_WEIGHT and e <= SCOPE_MAX_E


@dataclass(frozen=True)
class PipelineState:
    budget: Budget
    include_even: bool
    include_odd: bool
    H: AbstractExpr
    H2: AbstractExpr
    x_series: AbstractExpr
    inv_sqrt: AbstractExpr
    lam: AbstractExpr
    U: AbstractExpr
    U_dag: AbstractExpr
    H_FW: AbstractExpr


def run_pipeline(
    budget: Budget, include_even: bool = True, include_odd: bool = True
) -> PipelineState:
    """Build every intermediate of the one-step transformation."""
    if budget.max_word_len < 1:
        raise ValueError("pipeline needs room for at least one-letter words")
    hamiltonian = AbstractExpr.beta().shift_m(1)
    if include_even:
        hamiltonian = hamiltonian.add(AbstractExpr.generator("E"))
    if include_odd:
        hamiltonian = hamiltonian.add(AbstractExpr.generator("O"))

    h_squared = hamiltonian.mul(hamiltonian, budget)
    # X = (H^2 - m^2)/m^2 has no constant part, so binomial series apply.
    x_series = h_squared.sub(AbstractExpr.m_power(2)).shift_m(-2)
    inv_sqrt = nc_binomial_power(x_series, Fraction(-1, 2), budget)
    lam = hamiltonian.mul(inv_sqrt, budget).shift_m(-1)

    beta = AbstractExpr.beta()
    beta_lam = beta.mul(lam, budget)
    lam_beta = lam.mul(beta, budget)
    # U = (1 + beta lambda) / sqrt(2 + beta lambda + lambda beta); the
    # radicand is 2(1 + y) with y = (beta lambda + lambda beta - 2)/4
    # carrying no constant part.
    y_series = beta_lam.add(lam_beta).sub(AbstractExpr.rational(2)).scale(
        Fraction(1, 4)
    )
    u_op = (
        AbstractExpr.rational(1)
        .add(beta_lam)
        .mul(nc_binomial_power(y_series, Fraction(-1, 2), budget), budget)
        .scale(Fraction(1, 2))
    )
    u_dag = u_op.adjoint()
    h_fw = u_op.mul(hamiltonian, budget).mul(u_dag, budget)
    return PipelineState(
        budget=budget,
        include_even=include_even,
        include_odd=include_odd,
        H=hamiltonian,
        H2=h_squared,
        x_series=x_series,
        inv_sqrt=inv_sqrt,
        lam=lam,
        U=u_op,
        U_dag=u_dag,
        H_FW=h_fw,
    )


def eriksen_hamiltonian(
    budget: Budget, include_even: bool = True, include_odd: bool = True
) -> AbstractExpr:
    """Transformed Hamiltonian U H U^+ expanded under the budget."""
    return run_pipeline(budget, include_even, include_odd).H_FW


# -- defining-property verification -------------------------------------------


def residual_classes(expr: AbstractExpr) -> list[dict]:
    """Nonzero (e, o) classes, smallest words first."""
    buckets = expr.classify()
    out = []
    for (e, o) in sorted(buckets, key=lambda eo: (eo[0] + eo[1], eo[0], eo[1])):
        out.append({"e": e, "o": o, "terms": term_strings(buckets[(e, o)])})
    return out


def identity_residuals(state: PipelineState) -> list[tuple[str, AbstractExpr]]:
    """The six defining identities, each as an expression that must vanish."""
    budget = state.budget
    one = AbstractExpr.rational(1)
    beta = AbstractExpr.beta()
    beta_lam = beta.mul(state.lam, budget)
    lam_beta = state.lam.mul(beta, budget)
    factor = one.add(beta_lam)
    radicand = factor.adjoint().mul(factor, budget)
    return [
        ("involution_squares_to_one", state.lam.mul(state.lam, budget).sub(one)),
        ("beta_sandwiches_commute", beta_lam.commutator(lam_beta, budget)),
        (
            "symmetrized_sandwich_is_even",
            beta.commutator(beta_lam.add(lam_beta), budget),
        ),
        ("transform_is_unitary", state.U.mul(state.U_dag, budget).sub(one)),
        (
            "transform_intertwines_beta",
            beta.mul(state.U, budget).sub(state.U_dag.mul(beta, budget)),
        ),
        ("radicand_commutes_with_factor", radicand.commutator(factor, budget)),
    ]


def report_from_state(state: PipelineState) -> list[dict]:
    report = []
    for name, residual in identity_residuals(state):
        classes = residual_classes(residual)
        entry = {
            "identity": name,
            "status": "pass" if not classes else "fail",
            "residual_classes": classes,
        }
        if classes:
            entry["lowest_class"] = [classes[0]["e"], classes[0]["o"]]
        report.append(entry)
    return report


def verify_properties(budget: Budget) -> list[dict]:
    """Run the pipeline and check its defining identities exactly."""
    return report_from_state(run_pipeline(budget))


# -- closed-form reference series ----------------------------------------------


def _gen_o() -> Gen:
    return Gen("O")


def _gen_e() -> Gen:
    return Gen("E")


def _o_squared() -> PowN:
    return PowN(Gen("O"), 2)


def _weighted_acomm(coeff: Fraction, m_exp: int, weight, bracket) -> Prod:
    return Prod((Rat(Fraction(coeff)), MPow(m_exp), Acomm(weight, bracket)))


def reference_target(name: str) -> BracketExpr:
    """Structured encoding of the closed-form even series.

    "full": every bracket through nominal order 3.  "order2": the same
    with the five order-3 brackets removed.
    """
    if name not in ("full", "order2"):
        raise ValueError(f"unknown reference target {name!r}")
    o, e = _gen_o(), _gen_e()
    o2 = _o_squared()
    c_ooe = Comm(o, Comm(o, e))  # [O,[O,E]]
    c_o2o2e = Comm(o2, Comm(o2, e))  # [O^2,[O^2,E]]
    c_oee = Comm(Comm(o, e), e)  # [[O,E],E]
    c_o2ee = Comm(Comm(o2, e), e)  # [[O^2,E],E]

    poly_quartic = Sum(
        (
            Prod((Rat(Fraction(8)), MPow(4))),
            Prod((Rat(Fraction(-6)), MPow(2), _o_squared())),
            Prod((Rat(Fraction(5)), PowN(Gen("O"), 4))),
        )
    )
    poly_quadratic = Sum(
        (Prod((Rat(Fraction(2)), MPow(2))), Prod((Rat(Fraction(-1)), _o_squared())))
    )

    terms: list[BracketExpr] = [
        Prod((BetaF(), EpsFun("eps"))),
        e,
        _weighted_acomm(Fraction(-1, 128), -6, poly_quartic, c_ooe),
        _weighted_acomm(Fraction(1, 512), -6, poly_quadratic, c_o2o2e),
        Prod(
            (
                Rat(Fraction(1, 16)),
                MPow(-3),
                BetaF(),
                Acomm(o, c_oee),
            )
        ),
    ]
    order_three: list[BracketExpr] = [
        Prod((Rat(Fraction(-1, 32)), MPow(-4), Comm(o, Comm(c_oee, e)))),
        Prod(
            (
                Rat(Fraction(11, 1024)),
                MPow(-6),
                Comm(o2, Comm(o2, c_ooe)),
            )
        ),
    ]
    # The quartic-in-O block: beta/(256 m^5) times six brackets, the
    # last three of nominal order 3.
    quartic_order2 = Sum(
        (
            Prod((Rat(Fraction(24)), Acomm(o2, PowN(Comm(o, e), 2)))),
            Prod((Rat(Fraction(-11)), PowN(Comm(o2, e), 2))),
            Prod((Rat(Fraction(-14)), Acomm(o2, c_o2ee))),
        )
    )
    quartic_order3 = Sum(
        (
            Prod((Rat(Fraction(-4)), Comm(o, Comm(o, c_o2ee)))),
            Prod((Rat(Fraction(9, 2)), Comm(Comm(o, Comm(o, Comm(o2, e))), e))),
            Prod((Rat(Fraction(5, 2)), Comm(o2, Comm(o, c_oee)))),
        )
    )
    quartic_children = [quartic_order2]
    if name == "full":
        quartic_children.append(quartic_order3)
        terms.extend(order_three)
    terms.append(
        Prod(
            (
                Rat(Fraction(1, 256)),
                MPow(-5),
                BetaF(),
                Sum(tuple(quartic_children)),
            )
        )
    )
    return Sum(tuple(terms))


def compare_to_reference(budget: Budget | None = None) -> dict:
    """Class-by-class equality of the pipeline output and the closed form.

    Equality is demanded only where the closed form is complete
    (2e + o <= 8, e <= 3); anything the pipeline produces outside that
    scope is reported verbatim as extra, not failed.
    """
    if budget is None:
        budget = Budget(8, 3)
    derived = eriksen_hamiltonian(budget)
    target = expand(reference_target("full"), budget)
    classes = residual_classes(derived.sub(target))
    in_scope = [row for row in classes if in_reference_scope(row["e"], row["o"])]
    return {
        "budget": {"max_word_len": budget.max_word_len, "max_e_count": budget.max_e_count},
        "scope": f"2e+o<={SCOPE_MAX_WEIGHT}, e<={SCOPE_MAX_E}",
        "status": "pass" if not in_scope else "fail",
        "residual_classes": in_scope,
        "extra_classes": [
            row for row in classes if not in_reference_scope(row["e"], row["o"])
        ],
    }
