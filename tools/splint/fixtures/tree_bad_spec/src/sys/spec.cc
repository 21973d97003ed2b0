// splint fixture tree: a key table with two spec keys, but the README
// only documents "cache" -> spec-doc must fire for "zap".

struct KeyRow
{
    const char *key;
    unsigned group;
};

enum : unsigned
{
    kCacheKeys = 1,
    kScratchpadKeys = 2,
};

const KeyRow kKeys[] = {
    {"cache", kCacheKeys},     // documented in ../../README.md
    {"zap", kScratchpadKeys},  // undocumented -> spec-doc violation
};
