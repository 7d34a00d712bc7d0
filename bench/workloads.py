"""The three benchmark workloads and their per-op correctness gates.

Each workload is a fixed cycle of op kinds. ``call`` runs one op through
deletia's public API (looked up at call time, so the tracer's wrappers are
seen) and returns the raw result; ``check`` turns that result into a list
of gate failures, the op's recorded output and any counts it reports.
Inputs come only from the op's generator, which the runner derives from
the workload seed and the op index.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
from fractions import Fraction

import numpy as np

from deletia import cli, dualfhe, dualregev, games, hashfam, qsim
from tracer import aliases

TOL_ADV = 1e-9
TOL_TD = 1e-10


def norm_sq(entries, q: int) -> Fraction:
    """Squared norm of a Z_q vector on centered representatives."""
    c = (np.asarray(entries, dtype=np.int64) + q // 2) % q - q // 2
    return Fraction(int(np.sum(c * c)))


def short(certs, params) -> bool:
    """Every certificate is within the scheme's norm bound.

    An honest certificate always lies in its coset, but at desk parameters it
    exceeds the norm bound with small probability: like a decryption error,
    that is a completeness error of the parameter set, counted and limited to
    its seed rate (``Workload.event_rates``) rather than failed one by one.
    """
    return all(norm_sq(c, params.q) <= params.cert_bound_sq() for c in certs)


def gate_certificates(columns: list[tuple], params, verified) -> tuple[list[str], bool]:
    """Check certificates against the key they were verified with.

    ``columns`` holds (matrix, target, certificate) for each certificate,
    which must satisfy matrix . certificate = target (mod q), and
    ``verified`` must equal "all in their cosets and short". Returns the
    errors and whether the certificates were rejected only for their length.
    """
    errors = []
    certs = [c for _, _, c in columns]
    coset = all(np.array_equal((m @ c) % params.q, t) for m, t, c in columns)
    if not coset:
        errors.append(f"a certificate is outside its coset: {[c.tolist() for c in certs]}")
    is_short = short(certs, params)
    if verified is not (coset and is_short):
        errors.append(f"verified={verified} but certificates in coset={coset}, "
                      f"short={is_short}")
    return errors, coset and not is_short


@contextlib.contextmanager
def recording(module, name: str, calls: list):
    """Append the arguments of every call of ``module.<name>``, under each of
    its deletia aliases, to ``calls``."""
    fn = getattr(module, name)
    signature = inspect.signature(fn)

    def record(*args, **kwargs):
        calls.append(tuple(signature.bind(*args, **kwargs).arguments.values()))
        return fn(*args, **kwargs)

    places = aliases(fn)
    for m, key in places:
        setattr(m, key, record)
    try:
        yield
    finally:
        for m, key in places:
            setattr(m, key, fn)


class Workload:
    """Defaults for workloads that build no hash families of their own."""

    # Per-op rates of the counted scheme events (decryption errors, long
    # certificates) that a run tolerates; see run.rate_failures.
    event_rates: dict = {}

    def families(self) -> list:
        return []

    def domain_work(self, kind: str) -> int:
        return 0


class ExactGames(Workload):
    """Exact advantages and trace distances on enumerated 2-to-1 families.

    Its time is Python enumeration in games and hashfam plus qsim.trace_norm
    on matrices up to 128x128; it does no zqcore or dualregev work.
    """

    # The cheapest op comes first: it is the untimed warm-up op.
    cycle = ["balance", "evtc", "ladder-overlap", "ladder-honest"]
    balance_trials = 50

    def setup(self) -> None:
        self.ladder_families = [hashfam.two_to_one_family(5), hashfam.two_to_one_family(6)]
        self.evtc_family = hashfam.two_to_one_family(7)
        self.balance_family = hashfam.fdelta_family(hashfam.toy_regular_owf(10, 2))

    def families(self) -> list:
        return self.ladder_families + [self.evtc_family, self.balance_family]

    def domain_work(self, kind: str) -> int:
        """|domain| x keys enumerated by one op: the floor for eval calls."""
        if kind.startswith("ladder"):
            return sum(f.domain.size * len(f.keys()) for f in self.ladder_families)
        if kind == "evtc":
            return self.evtc_family.domain.size * len(self.evtc_family.keys())
        return self.balance_family.domain.size * self.balance_trials

    def call(self, kind: str, rng: np.random.Generator):
        if kind.startswith("ladder"):
            adv = games.OVERLAP_PROJECTOR if kind == "ladder-overlap" else games.HONEST_DELETER
            return [games.hybrid_ladder_exact(f, adv) for f in self.ladder_families]
        if kind == "evtc":
            e0, e1 = games.ev_target_collapse_ensembles(self.evtc_family, None,
                                                        games.HONEST_DELETER)
            return len(e0.branches) + len(e1.branches), qsim.ensemble_trace_distance(e0, e1)
        return hashfam.balance_estimate(self.balance_family, None, self.balance_trials, rng)

    def check(self, kind: str, raw) -> tuple[list[str], dict, dict]:
        errors: list[str] = []
        if kind.startswith("ladder"):
            advs = [[float(a) for a in res.adv] for res in raw]
            for bits, (a0, a1, a2, _) in zip((5, 6), advs):
                if a2 > TOL_ADV:
                    errors.append(f"{bits} bits: Adv(Exp2) = {a2!r}")
                if abs(a1 - a0 / 2) > TOL_ADV:
                    errors.append(f"{bits} bits: Adv(Exp1) = {a1!r} != Adv(Exp0)/2 = {a0 / 2!r}")
                if kind == "ladder-overlap" and abs(a0 - 0.5) > TOL_ADV:
                    errors.append(f"{bits} bits: overlap-projector Adv(Exp0) = {a0!r}")
            return errors, {"adv": advs}, {}
        if kind == "evtc":
            branches, td = raw
            if td > TOL_TD:
                errors.append(f"EVTC trace distance {td!r}")
            return errors, {"td": float(td), "branches": branches}, \
                {"games.ensemble_branches": branches}
        # f_Delta over a 2^r-regular OWF splits every fiber evenly: A0 = A1.
        worst = max(raw.ratios)
        if worst != 0.0:
            errors.append(f"balance: fiber imbalance {worst!r}")
        return errors, {"delta_hat": raw.delta_hat, "fraction_ok": raw.fraction_ok}, {}


class DualRegevPKE(Workload):
    """Dual-Regev lifecycles on dense states of 1.3e5 and 3.7e5 amplitudes.

    Its time is box enumeration and matmul_mod in dualregev/zqcore and the
    qsim Fourier transforms and measurement; it does no games or hashfam work.
    """

    # (n, m, q, sigma): state dimension q^(m+1) = 130 321 and 371 293.
    sizes = {"small": (1, 3, 19, 5), "large": (1, 4, 13, 5)}
    cycle = ["small-b0", "large-b1", "small-b1", "large-b0"]
    # Seed rates over 773 ops of each kind: decryption errors 0.4-1.8 %,
    # long certificates none.
    event_rates = {"dualregev.decrypt_errors": 0.03, "dualregev.cert_rejections": 0.01}

    def setup(self) -> None:
        self.params = {name: dualregev.dr_params(n=n, m=m, q=q, sigma=s)
                       for name, (n, m, q, s) in self.sizes.items()}

    def call(self, kind: str, rng: np.random.Generator) -> dict:
        size, bit = kind.split("-b")
        params, b = self.params[size], int(bit)
        keys = dualregev.dr_keygen(params, rng)
        ct = dualregev.dr_encrypt(keys, b, rng)
        pi = dualregev.dr_delete(ct, rng)
        verified = dualregev.dr_verify(ct.vk, pi, params)
        decrypted = dualregev.dr_decrypt(keys, dualregev.dr_encrypt(keys, b, rng), rng)
        return {"b": b, "vk": ct.vk, "pi": pi, "verified": verified, "decrypted": decrypted}

    def check(self, kind: str, raw: dict) -> tuple[list[str], dict, dict]:
        A, y = raw["vk"]
        pi = raw["pi"]
        errors, long_cert = gate_certificates([(A.entries, y.entries, pi.entries)],
                                              self.params[kind.split("-b")[0]], raw["verified"])
        output = {"b": raw["b"], "cert": pi.entries.tolist(), "y": y.entries.tolist(),
                  "verified": raw["verified"], "decrypted": raw["decrypted"]}
        return errors, output, {"dualregev.decrypt_errors": int(raw["decrypted"] != raw["b"]),
                                "dualregev.cert_rejections": int(long_cert)}


class CLIProtocols(Workload):
    """One in-process ``deletia`` CLI call per op, cycling through 11 commands.

    It shares qsim and zqcore with dr-pke but through thousands of tiny
    calls on states of dimension <= 6 859, plus gf2k, hashfam closures and
    the CLI's own parsing and JSON output.
    """

    commands = [
        ["dr", "roundtrip"],
        ["fhe", "delete-roundtrip"],
        ["fhe", "nand-tree", "--trials", "1"],
        ["commit", "demo"],
        ["pvd", "roundtrip"],
        ["game", "run", "--exp", "sgc", "--trials", "5"],
        ["game", "run", "--exp", "evtc", "--trials", "20"],
        ["game", "run", "--exp", "tcr", "--trials", "10"],
        ["game", "run", "--exp", "ladder", "--trials", "5"],
        ["game", "run", "--exp", "tc", "--trials", "20"],
        ["validate", "--scheme", "fhe", "--n", "2", "--m", "8", "--q", "260000011",
         "--sigma", "1857142.94", "--depth", "2"],
    ]
    cycle = [" ".join(c[:2] if c[0] != "game" else c[:4]) for c in commands]
    # The plaintext field a command reports next to "decrypted", and the
    # layer a mismatch is counted under: a decryption error is a property of
    # the scheme, not a failure.
    decrypt_fields = {"dr roundtrip": ("b", "dualregev"),
                      "fhe delete-roundtrip": ("x", "dualfhe"),
                      "pvd roundtrip": ("b", "pvdcore")}
    # Commands whose certificates carry a norm bound: the verifier the
    # command calls, whose arguments (key, certificates, parameters) the op
    # records, and the layer.
    verifiers = {"dr roundtrip": (dualregev, "dr_verify", "dualregev"),
                 "fhe delete-roundtrip": (dualfhe, "fhe_verify", "dualfhe")}
    # Seed rates over 4 819 ops of each kind: decryption errors 0.44 % (dr),
    # 1.45 % (fhe) and 1.2 % (pvd); long certificates 0.06 % (dr), 0.12 % (fhe).
    event_rates = {"dualregev.decrypt_errors": 0.01, "dualregev.cert_rejections": 0.005,
                   "dualfhe.decrypt_errors": 0.03, "dualfhe.cert_rejections": 0.005,
                   "pvdcore.decrypt_errors": 0.03}

    def setup(self) -> None:
        self.argv = dict(zip(self.cycle, self.commands))

    def call(self, kind: str, rng: np.random.Generator) -> dict:
        argv = self.argv[kind] + ["--seed", str(int(rng.integers(0, 2**31 - 1)))]
        out, err = io.StringIO(), io.StringIO()
        verify_calls: list = []
        with contextlib.ExitStack() as stack:
            if kind in self.verifiers:
                module, name, _ = self.verifiers[kind]
                stack.enter_context(recording(module, name, verify_calls))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse and config errors
                rc = exc.code if isinstance(exc.code, int) else f"SystemExit({exc.code!r})"
        return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "verify_calls": verify_calls}

    @staticmethod
    def cert_columns(kind: str, vk, certs) -> list[tuple]:
        """(matrix, target, certificate) for each certificate's coset check:
        A.pi = y for dr, A^T.pi_i = Y[:, i] for fhe."""
        if kind == "dr roundtrip":
            A, y = vk
            return [(A.entries, y.entries, certs.entries)]
        A, Y = vk
        return [(A.entries.T, Y.entries[:, i], pi.entries) for i, pi in enumerate(certs)]

    def check_certificates(self, kind: str, raw: dict, report: dict) -> tuple[list[str], bool]:
        """gate_certificates on the command's one verifier call, whose
        certificates must be the printed ones."""
        if len(raw["verify_calls"]) != 1:
            return [f"expected one verifier call, saw {len(raw['verify_calls'])}"], False
        vk, certs, params = raw["verify_calls"][0]
        columns = self.cert_columns(kind, vk, certs)
        errors, long_cert = gate_certificates(columns, params, report["verified"])
        emitted = [report["cert"]] if kind == "dr roundtrip" else report["certs"]
        if [c.tolist() for _, _, c in columns] != emitted:
            errors.append("printed certificates differ from the verified ones")
        return errors, long_cert

    def check(self, kind: str, raw: dict) -> tuple[list[str], dict, dict]:
        errors: list[str] = []
        counts: dict = {}
        output = {"argv": raw["argv"], "rc": raw["rc"], "stdout": raw["stdout"]}
        if raw["rc"] not in (0, 1):
            errors.append(f"exit {raw['rc']}: {raw['stderr'].strip()[-200:]}")
        try:
            report = json.loads(raw["stdout"])
        except json.JSONDecodeError as exc:
            return errors + [f"stdout is not JSON: {exc}"], output, counts
        explained = False  # an exit 1 caused by a scheme completeness error
        if kind in self.verifiers:
            cert_errors, long_cert = self.check_certificates(kind, raw, report)
            errors += cert_errors
            counts[f"{self.verifiers[kind][2]}.cert_rejections"] = int(long_cert)
            explained |= long_cert
        elif "verified" in report and report["verified"] is not True:
            errors.append("certificate not verified")
        if kind == "fhe nand-tree" and report.get("all_ok") is not True:
            errors.append("NAND tree decrypted wrongly")
        if kind == "commit demo" and not report.get("honest_open_prob", 0.0) > 1 - 1e-9:
            errors.append(f"honest opening probability {report.get('honest_open_prob')!r}")
        if kind in self.decrypt_fields:
            field, layer = self.decrypt_fields[kind]
            mismatch = report["decrypted"] != report[field]
            counts[f"{layer}.decrypt_errors"] = int(mismatch)
            explained |= mismatch
        if raw["rc"] == 1 and not explained:
            errors.append("exit 1 without a decryption error or a long certificate")
        return errors, output, counts


WORKLOADS = {"exact-games": ExactGames, "dr-pke": DualRegevPKE, "mc-protocols": CLIProtocols}
