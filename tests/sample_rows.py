"""Independent oracles for ``couple --mode mc`` rows, shared by the CLI and
coupling tests: the CSV bytes built one sample at a time."""


def csv_loop(samples):
    """``replica,height_x,height_xhat,case`` rows of CoupledSamples, one line
    per sample in order (an empty case for an untagged sample)."""
    lines = ["replica,height_x,height_xhat,case"]
    for i, s in enumerate(samples):
        case = s.case_tag.value if s.case_tag is not None else ""
        lines.append(f"{i},{s.height_x},{s.height_xhat},{case}")
    return "\n".join(lines) + "\n"
