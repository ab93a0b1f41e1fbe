"""Command-line entry point.

Each subcommand prints one machine-readable line of space-separated
``key=value`` pairs on stdout. Exit codes: 0 success, 1 runtime failure,
2 usage error (unknown flag or subcommand).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import load_config
from .data_io import load_checkpoint, load_mnist_idx
from .evaluate import (
    ChannelSpec,
    categorical_classifier_eval,
    channel_bound_check,
    estimate_mi_bound,
    random_channel,
    random_joint,
    traversal_grid,
    verify_lemma,
)
from .gradsuite import full_loss_graph_check, op_grad_checks
from .trainer import train_run

GRAD_TOLERANCE = 1e-5


def _fmt(value) -> str:
    if value is None:
        return "na"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(**pairs) -> None:
    print(" ".join(f"{k}={_fmt(v)}" for k, v in pairs.items()))


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    _, trace = train_run(cfg)
    last = trace.rows[-1]
    _emit(
        iterations=cfg.iterations,
        final_loss_d=last[1],
        final_loss_g=last[2],
        final_li_disc=last[3],
        final_li_cont=last[4],
        checkpoint=cfg.checkpoint_out,
        metrics=cfg.metrics_out,
    )
    return 0


def _cmd_eval_mi(args) -> int:
    model, _cfg = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    est = estimate_mi_bound(model, model.spec, args.samples, rng)
    _emit(
        samples=est.n_samples,
        li_disc=est.li_disc,
        se_disc=est.se_disc,
        h_disc=est.h_disc,
        li_cont=est.li_cont,
        se_cont=est.se_cont,
        h_cont=est.h_cont,
    )
    return 0


def _cmd_traverse(args) -> int:
    model, cfg = load_checkpoint(args.checkpoint)
    blk = model.spec.blocks[args.block] if 0 <= args.block < len(model.spec.blocks) else None
    if blk is not None and blk.is_discrete:
        values = list(range(blk.k))
    else:
        values = list(np.linspace(args.sweep_from, args.sweep_to, args.steps))
    rng = np.random.default_rng(args.seed)
    traversal_grid(model, args.block, values, args.rows, rng, cfg.image_dims, args.out)
    _emit(out=args.out, rows=args.rows, cols=len(values), block=args.block)
    return 0


def _cmd_classify(args) -> int:
    model, _cfg = load_checkpoint(args.checkpoint)
    ds = load_mnist_idx(args.mnist_images, args.mnist_labels)
    error_rate, assignment = categorical_classifier_eval(model, ds, args.block)
    pairs = ";".join(f"{c}>{d}" for c, d in sorted(assignment.items()))
    _emit(error_rate=error_rate, n=len(ds), block=args.block, assignment=pairs)
    return 0


def _cmd_verify_lemma(args) -> int:
    rng = np.random.default_rng(args.seed)
    joint = random_joint(rng)
    res = verify_lemma(joint, args.n_mc, rng)
    exact_diff = abs(res.lhs_exact - res.rhs_exact)
    ok = exact_diff <= 1e-12  # False for a NaN
    _emit(
        lhs_exact=res.lhs_exact,
        rhs_exact=res.rhs_exact,
        exact_diff=exact_diff,
        lhs_mc=res.lhs_mc,
        rhs_mc=res.rhs_mc,
        lhs_se=res.lhs_se,
        rhs_se=res.rhs_se,
        ok=int(ok),
    )
    return 0 if ok else 1


def _cmd_channel_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    max_neg_gap = 0.0
    max_kl_mismatch = 0.0
    max_posterior_gap = 0.0
    # A non-finite gap passes only as gap == E[KL] == inf; np.maximum keeps
    # a NaN (so ok=0), where max() would drop it.
    for _ in range(args.trials):
        res = channel_bound_check(random_channel(rng))
        if np.isfinite(res.gap):
            max_neg_gap = max(max_neg_gap, -res.gap if res.gap < 0 else 0.0)
        if not res.gap == res.expected_kl == np.inf:
            max_kl_mismatch = np.maximum(max_kl_mismatch, abs(res.gap - res.expected_kl))
        res_post = channel_bound_check(random_channel(rng, q_mode="posterior"))
        max_posterior_gap = np.maximum(max_posterior_gap, abs(res_post.gap))
    bsc = channel_bound_check(
        ChannelSpec(
            prior=np.array([0.5, 0.5]),
            conditional=np.array([[0.9, 0.1], [0.1, 0.9]]),
            q_table=np.array([[0.9, 0.1], [0.1, 0.9]]),
        )
    )
    ok = max_neg_gap <= 1e-12 and max_kl_mismatch <= 1e-12 and max_posterior_gap <= 1e-12
    _emit(
        trials=args.trials,
        max_neg_gap=max_neg_gap,
        max_kl_mismatch=max_kl_mismatch,
        max_posterior_gap=max_posterior_gap,
        bsc_i=bsc.i_exact,
        bsc_gap=bsc.gap,
        ok=int(ok),
    )
    return 0 if ok else 1


def _cmd_gradcheck(args) -> int:
    per_op = op_grad_checks(n_seeds=args.seeds)
    full = full_loss_graph_check(n_seeds=args.seeds)
    worst_op = max(per_op.values())
    ok = worst_op <= GRAD_TOLERANCE and full <= GRAD_TOLERANCE
    _emit(
        seeds=args.seeds,
        max_op_err=worst_op,
        worst_op=max(per_op, key=per_op.get),
        full_graph_err=full,
        tolerance=GRAD_TOLERANCE,
        ok=int(ok),
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="infogan-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run training from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval-mi", help="Monte-Carlo bound estimate on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_eval_mi)

    p = sub.add_parser("traverse", help="latent traversal grid to a PGM file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--from", dest="sweep_from", type=float, default=-2.0)
    p.add_argument("--to", dest="sweep_to", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_traverse)

    p = sub.add_parser("classify", help="score a categorical code against labels")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mnist-images", required=True)
    p.add_argument("--mnist-labels", required=True)
    p.add_argument("--block", type=int, required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify-lemma", help="two-sided sampling identity on a random joint")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-mc", type=int, default=100000)
    p.set_defaults(fn=_cmd_verify_lemma)

    p = sub.add_parser("channel-check", help="bound/KL identities on random channels")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_channel_check)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op and the full loss graph")
    p.add_argument("--seeds", type=int, default=100)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:  # runtime failure -> exit 1 with a diagnostic
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
