#include "core/compile_path.hh"

#include <cstdlib>
#include <cstring>

namespace dcmbqc
{

namespace
{

bool
referenceRequested()
{
#ifdef DCMBQC_COMPILE_REFERENCE
    return true;
#else
    const char *env = std::getenv("DCMBQC_COMPILE_REFERENCE");
    return env && std::strcmp(env, "0") != 0 &&
        std::strcmp(env, "") != 0;
#endif
}

CompilePathConfig
defaults()
{
    CompilePathConfig config;
    const bool fast = !referenceRequested();
    config.streamingFrontEnd = fast;
    config.streamingScheduler = fast;
    return config;
}

} // namespace

CompilePathConfig &
compilePathConfig()
{
    static CompilePathConfig config = defaults();
    return config;
}

void
resetCompilePathConfig()
{
    compilePathConfig() = defaults();
}

} // namespace dcmbqc
