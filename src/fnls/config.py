"""Plain-text `key = value` config files with `#` comments."""


def parse_value(text):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if "," in text:
        return [parse_value(v) for v in text.split(",") if v.strip()]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if low in ("inf", "infinity"):
        return float("inf")
    return text


def load_config(path):
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
            out[key] = parse_value(value)
    return out
