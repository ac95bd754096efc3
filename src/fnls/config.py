"""Plain-text `key = value` config files with `#` comments."""


def load_config(path):
    """{key: value text}; each key's type parses its text (`fnls.cli.KEY_TYPES`)."""
    out, line_of = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in line_of:
                raise ValueError(
                    f"{path}:{lineno}: config key {key!r} is already set on line {line_of[key]}"
                )
            line_of[key] = lineno
            out[key] = value.strip()
    return out
