#include "obs/session.hh"

#include <fstream>

#include "common/logging.hh"
#include "common/schema.hh"

namespace darco::obs
{

std::unique_ptr<Session>
Session::fromConfig(const Config &cfg)
{
    const std::string tracePath = conf::getString(cfg, "obs.trace.path");
    const std::string metricsPath = conf::getString(cfg, "obs.metrics.path");
    if (tracePath.empty() && metricsPath.empty())
        return nullptr;

    std::unique_ptr<Session> s(new Session());
    if (!tracePath.empty()) {
        s->tracer_ = std::make_unique<Tracer>();
        s->tracePath_ = tracePath;
    }
    if (!metricsPath.empty()) {
        s->metrics_ = std::make_unique<MetricsWriter>(
            conf::getUint(cfg, "obs.metrics.interval"));
        s->metricsPath_ = metricsPath;
    }
    return s;
}

Session::~Session()
{
    write();
}

void
Session::setJobLabel(const std::string &label)
{
    if (tracer_)
        tracer_->setProcessName(label);
}

void
Session::write()
{
    if (written_)
        return;
    written_ = true;
    if (tracer_ && !tracePath_.empty()) {
        std::ofstream f(tracePath_);
        if (f)
            tracer_->exportChromeJson(f);
        else
            warn("obs: cannot write trace to ", tracePath_);
    }
    if (metrics_ && !metricsPath_.empty()) {
        std::ofstream f(metricsPath_);
        if (f)
            metrics_->writeTo(f);
        else
            warn("obs: cannot write metrics to ", metricsPath_);
    }
}

} // namespace darco::obs
