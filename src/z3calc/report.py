"""Report entries, shared by the verify suites and the supergroup checks."""

from .freealg import fa_str


def flag(name, ok, witness=None):
    """One report entry: name, pass or fail, and the witness if not empty."""
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if witness:
        entry["witness"] = witness
    return entry


def zero_entry(name, preset, poly):
    """Passes when poly reduces to zero; otherwise its normal form is the
    witness."""
    nf = preset.normal_form(poly)
    ok = nf.is_zero()
    return flag(name, ok, None if ok else fa_str(nf, preset.order.key))


def all_pass(entries):
    return all(e["status"] == "pass" for e in entries)
